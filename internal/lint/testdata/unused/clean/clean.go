// Package clean uses every exported package-level identifier it declares
// from its own non-test code, through generic instantiation included.
// Methods and unexported identifiers are out of scope.
package clean

import "fmt"

const Limit = 4

var Names = []string{"a", "b"}

type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// Map is generic: its callers use the generic function through an
// instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

type Counter struct{ n int }

// Reset is a method nothing calls: methods are out of scope.
func (c *Counter) Reset() { c.n = 0 }

// helper is unexported: out of scope.
func helper() {}

func Describe() string {
	p := Pair[string, int]{Key: Names[0], Val: Limit}
	xs := Map([]int{1, 2}, func(x int) int { return x * 2 })
	ys := Map[string](Names, func(s string) string { return s })
	return fmt.Sprint(p, xs, ys, new(Counter))
}

func init() { _ = Describe() }
