package cache

import "slices"

// ChunkLen is the number of table entries per Chunks chunk.
const ChunkLen = 16

// Chunks is an immutable copy of a flat table, held as ChunkLen-entry chunks
// (the last one may be shorter). Successive captures of one table share
// every chunk whose content did not change in between, so a snapshot series
// pays for the entries the machine rewrote, not for whole tables. A Chunks is
// never written through, so it may be copied out of concurrently.
type Chunks[T comparable] struct {
	chunks         [][]T
	shared, copied int
}

// CaptureChunks returns a copy of src that reuses base's chunk wherever its
// content equals src's. base may be nil or any earlier capture: chunks are
// compared entry by entry, so the copy is exact whatever base is, and only
// how much it shares depends on base. The chunks that differ are copied into
// one fresh allocation.
func CaptureChunks[T comparable](src []T, base *Chunks[T]) *Chunks[T] {
	c := &Chunks[T]{chunks: make([][]T, (len(src)+ChunkLen-1)/ChunkLen)}
	for i := range c.chunks {
		part := chunkOf(src, i)
		if base != nil && i < len(base.chunks) && slices.Equal(base.chunks[i], part) {
			c.chunks[i] = base.chunks[i]
			c.shared++
		}
	}
	c.copied = len(c.chunks) - c.shared
	fresh := make([]T, 0, c.copied*ChunkLen)
	for i, ch := range c.chunks {
		if ch == nil {
			lo := len(fresh)
			fresh = append(fresh, chunkOf(src, i)...)
			c.chunks[i] = fresh[lo:len(fresh):len(fresh)]
		}
	}
	return c
}

func chunkOf[T any](s []T, i int) []T {
	return s[i*ChunkLen : min((i+1)*ChunkLen, len(s))]
}

// CopyTo copies the captured table into dst, which must be at least as long
// as the table captured.
func (c *Chunks[T]) CopyTo(dst []T) {
	for i, ch := range c.chunks {
		copy(dst[i*ChunkLen:], ch)
	}
}

// Sharing reports how many chunks the capture took by reference from its
// base and how many it copied.
func (c *Chunks[T]) Sharing() (shared, copied int) { return c.shared, c.copied }
