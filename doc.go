// Package muststaple is a from-scratch Go reproduction of "Is the Web
// Ready for OCSP Must-Staple?" (Chung et al., IMC 2018): a complete OCSP
// (RFC 6960) and CRL (RFC 5280) implementation, a synthetic PKI and
// fault-injectable responder fleet, a six-vantage measurement client, the
// browser and web-server behavior models of the paper's Tables 2 and 3,
// and a harness that regenerates every table and figure of the paper's
// evaluation.
//
// The package tree:
//
//   - internal/ocsp, internal/crl, internal/pkixutil — the wire-format
//     substrates, on the standard library only: the OCSP codec on
//     pkixutil's DER writer and reader, the CRL codec on encoding/asn1.
//   - internal/pki — synthetic root CAs and the leaves they issue (AIA,
//     CRLDP, and the TLS-Feature Must-Staple extension).
//   - internal/responder, internal/netsim, internal/clock — the simulated
//     responder fleet and Internet.
//   - internal/ocspserver — the RFC 5019 serving tier over real sockets,
//     fronting one responder per handler.
//   - internal/scanner, internal/census, internal/consistency — the
//     measurement systems (§5 of the paper): a context-aware scan client
//     with retry/backoff and a campaign engine that scans each round in
//     parallel, then aggregates and persists it in order (see DESIGN.md
//     §6).
//   - internal/metrics — the lightweight counters/gauges/histograms
//     behind Campaign.Stats().
//   - internal/browser, internal/webserver — the client and server test
//     suites (§6, §7).
//   - internal/world, internal/core, internal/report — the calibrated
//     scenario, the experiment runners, and the table/figure renderers.
//
// Start with cmd/repro to regenerate the paper, or examples/quickstart for
// the library API. The benchmarks in bench_test.go exercise one experiment
// per table and figure plus the ablations listed in DESIGN.md.
package muststaple
