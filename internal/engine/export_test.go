package engine

// ScratchOf exposes a Batch's pooled scratch, so a test can tell two
// batches' scratch apart.
func ScratchOf(b *Batch) any { return b.sc }
