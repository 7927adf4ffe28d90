package mpi

// FreeRequests reports how many recycled requests the rank holds.
func (r *Rank) FreeRequests() int { return r.freeReqs.Len() }

// WaitFree is waitFree, the release point of a blocking call's requests.
func (r *Rank) WaitFree(q *Request) Status { return r.waitFree(q) }
