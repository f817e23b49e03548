package report

import (
	"github.com/netmeasure/muststaple/internal/census"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// ObservationSource streams persisted observations one at a time in
// storage order. store.Reader satisfies it; the indirection keeps this
// package free of any dependency on the store's on-disk format.
type ObservationSource interface {
	Scan(fn func(scanner.Observation) error) error
}

// StreamInto drives every observation from src through the given
// aggregators and returns how many were streamed. Observations flow one
// at a time — a multi-month store is analyzed in fixed memory, nothing is
// materialized — and canceled lookups are skipped with the same filtering
// the campaign engine applies, so aggregates computed from a store match
// the ones the original campaign produced.
func StreamInto(src ObservationSource, aggs ...scanner.Aggregator) (int, error) {
	n := 0
	err := src.Scan(func(o scanner.Observation) error {
		if o.Class == scanner.ClassCanceled {
			return nil
		}
		n++
		for _, a := range aggs {
			a.Add(o)
		}
		return nil
	})
	return n, err
}

// CertAggregator folds corpus records into a figure or table input.
// census.StatsAccumulator satisfies it.
type CertAggregator interface {
	AddCert(census.CertInfo)
}

// StreamCertsInto drives every record from src through the given
// aggregators and returns how many were streamed. Records flow one at a
// time, so a generated stream and a spilled 100M-record corpus are both
// analyzed in fixed memory — the corpus analogue of StreamInto.
func StreamCertsInto(src *census.Corpus, aggs ...CertAggregator) (int, error) {
	n := 0
	err := src.Visit(func(c census.CertInfo) error {
		n++
		for _, a := range aggs {
			a.AddCert(c)
		}
		return nil
	})
	return n, err
}
