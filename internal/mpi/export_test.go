package mpi

// FreeRequests reports how many recycled requests the rank holds.
func (r *Rank) FreeRequests() int { return r.freeReqs.Len() }

// Members reports the communicator's member table.
func (c *Comm) Members() []int { return c.members }
