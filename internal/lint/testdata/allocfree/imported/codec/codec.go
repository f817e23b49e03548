// Package codec is the allocfree fixture for string-returning callees in
// another package (package user beside it calls them): a callee whose own
// declaration carries //lint:allocfree is trusted, and a same-named method
// of another type without the directive is not.
package codec

// Decoder reads interned strings.
type Decoder struct {
	b       []byte
	interns map[string]string
}

// String returns the interned copy of the buffer.
//
//lint:allocfree
func (d *Decoder) String() string {
	return d.interns[string(d.b)]
}

// Raw has a String method of the same name and signature, without the
// contract.
type Raw struct {
	b []byte
}

// String allocates its result on every call. It is kept out of line so
// the only finding at its call site is the call itself, not the inlined
// conversion's escape.
//
//go:noinline
func (r *Raw) String() string {
	return string(r.b)
}

// Names is generic: a call through an instantiation must resolve to the
// origin's declaration.
type Names[K comparable] struct {
	m map[K]string
}

// Name looks k up.
//
//lint:allocfree
func (n *Names[K]) Name(k K) string {
	return n.m[k]
}
