package mvib

// Credits reports the send credits rank holds toward peer.
func (t *Transport) Credits(rank, peer int) int { return int(t.states[rank].peers[peer].credits) }
