package slab

import "testing"

// TestCarveCapsAndSizesChunks: a carving is zeroed and capped at its
// length, so an append to it reallocates instead of writing into the
// next carving, and a new chunk follows the size rule.
func TestCarveCapsAndSizesChunks(t *testing.T) {
	var s []int
	a := Carve(&s, 2, 0)
	if len(a) != 2 || cap(a) != 2 || a[0] != 0 || a[1] != 0 {
		t.Fatalf("Carve(2) = %v cap %d, want two zeros capped at 2", a, cap(a))
	}
	if len(s) != 6 {
		t.Errorf("a tiny size left %d elements of the first chunk, want 6 of 8", len(s))
	}
	b := Carve(&s, 1, 0)
	a = append(a, 7)
	if b[0] != 0 {
		t.Errorf("an append to one carving reached the next: %v", b)
	}
	for _, c := range []struct{ n, size, want int }{
		{1, 100, 100}, {1, 10_000, 512}, {600, 100, 600},
	} {
		var s []int
		Carve(&s, c.n, c.size)
		if got := c.n + len(s); got != c.want {
			t.Errorf("Carve(n %d, size %d) made a chunk of %d, want %d", c.n, c.size, got, c.want)
		}
	}
}
