// Package table is the allocfree fixture for a generic contract: its
// annotated method's body is compiled only in the packages that
// instantiate it (package user beside it), so its escape verdicts appear
// only in their compiler output.
package table

import "sync"

// leak keeps a pointer alive so escape analysis must move its target to
// the heap.
var leak any

// Table is a locked map, shaped like internal/memo's.
type Table[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get leaks the address of its key: every call moves k to the heap.
//
//lint:allocfree
func (t *Table[K, V]) Get(k K) (V, bool) { // want "moved to heap: table.k"
	leak = &k
	t.mu.Lock()
	v, ok := t.m[k]
	t.mu.Unlock()
	return v, ok
}

// Len is allocation-free in every instantiation: no finding.
//
//lint:allocfree
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	n := len(t.m)
	t.mu.Unlock()
	return n
}

// Sum is a generic function rather than a method; it is clean.
//
//lint:allocfree
func Sum[T ~string | ~[]byte](b T) int {
	n := 0
	for i := 0; i < len(b); i++ {
		n += int(b[i])
	}
	return n
}
