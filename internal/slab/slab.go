// Package slab hands out small runs of elements from a shared backing
// array, so a store that makes many tiny, long-lived slices (occurrences,
// set links, child lists) pays one allocation per chunk instead of one
// per slice.
package slab

// Carve returns n zeroed elements from *slab, capped at n so an append
// to them never reaches the next carving. When *slab holds fewer than n
// elements a new chunk replaces it, as large as size (the caller's
// database so far), between 8 and 512 elements, so a tiny database pays
// for a tiny chunk.
func Carve[T any](slab *[]T, n, size int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, min(max(size, 8), 512)))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}
