// Package user calls the string-returning methods of package codec from
// an allocation-free function.
package user

import "github.com/netmeasure/muststaple/internal/lint/testdata/allocfree/imported/codec"

var names codec.Names[int]

// Decode calls an annotated method, an unannotated method of the same
// name, and an annotated method of a generic type.
//
//lint:allocfree
func Decode(d *codec.Decoder, r *codec.Raw) (string, string, string) {
	a := d.String()
	b := r.String() // want "call to \(\*github.com/.*/codec.Raw\).String returns a string"
	c := names.Name(1)
	return a, b, c
}
