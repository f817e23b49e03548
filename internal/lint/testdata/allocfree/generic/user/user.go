// Package user instantiates the generic fixture in package table with two
// type shapes, so the analyzer sees each escape verdict from more than
// one instantiation and must report it once.
package user

import "github.com/netmeasure/muststaple/internal/lint/testdata/allocfree/generic/table"

var (
	byName table.Table[string, int]
	byID   table.Table[uint64, *int]
)

// Lookup calls every annotated function of package table.
func Lookup(name string, id uint64) int {
	n, _ := byName.Get(name)
	if p, ok := byID.Get(id); ok {
		n += *p
	}
	return n + byName.Len() + byID.Len() + table.Sum(name) + table.Sum([]byte(name))
}
