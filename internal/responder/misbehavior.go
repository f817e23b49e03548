package responder

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
)

// This file is the single source of truth for responder misbehaviors.
// Every response-quality defect the paper catalogues (§5.3–§5.4) is
// expressed twice from one definition: as a functional ProfileOption for
// programmatic construction (internal/world's calibrated fleet, tests),
// and as a row in the Misbehaviors table that cmd/ocspresponder binds to
// CLI flags. Adding a defect means adding one option constructor and one
// table row — no cmd changes, no flag soup.

// ProfileOption mutates a Profile under construction. Options are pure
// field writers: they never read the clock or draw randomness, so
// applying them between seeded RNG draws cannot perturb a world build.
type ProfileOption func(*Profile)

// NewProfile builds a Profile by applying opts in order over the
// well-behaved zero value.
func NewProfile(opts ...ProfileOption) Profile {
	var p Profile
	p.Apply(opts...)
	return p
}

// Apply applies opts to an existing profile in order — the incremental
// form used when a base behavior is refined (the world generator layers
// quality-defect budgets over an already-assigned base profile).
func (p *Profile) Apply(opts ...ProfileOption) {
	for _, o := range opts {
		o(p)
	}
}

// WithValidity sets nextUpdate − thisUpdate (Figure 8's axis).
func WithValidity(d time.Duration) ProfileOption {
	return func(p *Profile) { p.Validity = d }
}

// WithBlankNextUpdate omits nextUpdate entirely (9.1% of responders).
func WithBlankNextUpdate() ProfileOption {
	return func(p *Profile) { p.BlankNextUpdate = true }
}

// WithZeroMargin sets thisUpdate to the request time, dropping the
// default 1-hour clock-skew margin (17.2% of responders).
func WithZeroMargin() ProfileOption {
	return func(p *Profile) {
		p.NoDefaultMargin = true
		p.ThisUpdateOffset = 0
	}
}

// WithThisUpdateOffset backdates thisUpdate by d (negative values give
// the future-thisUpdate misbehavior of 3% of responders). The offset is
// explicit, so the default margin is disabled.
func WithThisUpdateOffset(d time.Duration) ProfileOption {
	return func(p *Profile) {
		p.NoDefaultMargin = true
		p.ThisUpdateOffset = d
	}
}

// WithCachedResponses pre-generates one response per update window
// instead of signing on demand (51.7% of responders). interval 0 keeps
// the Validity/2 default.
func WithCachedResponses(interval time.Duration) ProfileOption {
	return func(p *Profile) {
		p.CacheResponses = true
		p.UpdateInterval = interval
	}
}

// WithOnDemandGeneration forces per-request signing, undoing a cached
// base behavior (the zero-margin budgets necessarily sign on demand).
func WithOnDemandGeneration() ProfileOption {
	return func(p *Profile) { p.CacheResponses = false }
}

// WithInstances models a load-balanced farm of n members whose
// generation times are skewed by skew (producedAt can regress between
// fetches, §5.4 footnote 17). skew 0 keeps the 1-minute default.
func WithInstances(n int, skew time.Duration) ProfileOption {
	return func(p *Profile) {
		p.Instances = n
		p.InstanceSkew = skew
	}
}

// WithExtraSerials adds n unsolicited single responses (Figure 7).
func WithExtraSerials(n int) ProfileOption {
	return func(p *Profile) { p.ExtraSerials = n }
}

// WithMalformed substitutes a broken body, persistently when no windows
// are given, transiently inside them otherwise (§5.3).
func WithMalformed(kind MalformedKind, windows ...Window) ProfileOption {
	return func(p *Profile) {
		p.Malformed = kind
		p.MalformedWindows = windows
	}
}

// WithSerialMismatch answers about a different serial than requested.
func WithSerialMismatch() ProfileOption {
	return func(p *Profile) { p.SerialMismatch = true }
}

// WithBadSignature corrupts response signatures after signing.
func WithBadSignature() ProfileOption {
	return func(p *Profile) { p.BadSignature = true }
}

// WithErrorStatus answers every request with an OCSP error status.
func WithErrorStatus(st ocsp.ResponseStatus) ProfileOption {
	return func(p *Profile) { p.ErrorStatus = st }
}

// WithRevocationTimeSkew shifts OCSP revocation times relative to the
// CRL's ground truth (ocsp.msocsp.com lagged its CRL by up to 9 days).
func WithRevocationTimeSkew(d time.Duration) ProfileOption {
	return func(p *Profile) { p.RevocationTimeSkew = d }
}

// WithDropReasonCodes omits revocation reasons that the CRL carries.
func WithDropReasonCodes() ProfileOption {
	return func(p *Profile) { p.DropReasonCodes = true }
}

// ParseMalformedKind maps the CLI spelling of a malformed-body kind to
// its enum value.
func ParseMalformedKind(s string) (MalformedKind, error) {
	switch s {
	case "zero":
		return MalformedZero, nil
	case "empty":
		return MalformedEmpty, nil
	case "js":
		return MalformedJavaScript, nil
	case "truncated":
		return MalformedTruncated, nil
	}
	return MalformedNone, fmt.Errorf("responder: unknown malformed kind %q (want zero, empty, js, or truncated)", s)
}

// ParseErrorStatus maps the CLI spelling of an always-error status to
// its enum value.
func ParseErrorStatus(s string) (ocsp.ResponseStatus, error) {
	switch s {
	case "trylater":
		return ocsp.StatusTryLater, nil
	case "internal":
		return ocsp.StatusInternalError, nil
	case "unauthorized":
		return ocsp.StatusUnauthorized, nil
	}
	return ocsp.StatusSuccessful, fmt.Errorf("responder: unknown error status %q (want trylater, internal, or unauthorized)", s)
}

// Misbehavior is one nameable response-quality defect with its CLI
// binding: the flag name and usage string, whether the flag is boolean,
// and the parser turning the flag's value into the ProfileOption it maps
// onto (1:1 — every flag is exactly one option).
type Misbehavior struct {
	// Flag is the CLI flag name (also the misbehavior's canonical name).
	Flag string
	// Usage is the flag's help text.
	Usage string
	// Bool marks presence-style flags; their Option ignores the value.
	Bool bool
	// Option parses the flag value into the option to apply.
	Option func(value string) (ProfileOption, error)
}

func boolMisbehavior(name, usage string, opt ProfileOption) Misbehavior {
	return Misbehavior{Flag: name, Usage: usage, Bool: true,
		Option: func(string) (ProfileOption, error) { return opt, nil }}
}

func durationMisbehavior(name, usage string, opt func(time.Duration) ProfileOption) Misbehavior {
	return Misbehavior{Flag: name, Usage: usage,
		Option: func(v string) (ProfileOption, error) {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, err
			}
			return opt(d), nil
		}}
}

func intMisbehavior(name, usage string, opt func(int) ProfileOption) Misbehavior {
	return Misbehavior{Flag: name, Usage: usage,
		Option: func(v string) (ProfileOption, error) {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, err
			}
			return opt(n), nil
		}}
}

// Misbehaviors is the canonical defect table: everything a standalone
// responder can be told to do wrong, in stable order. cmd/ocspresponder
// binds exactly this table, so a new row here appears as a new flag with
// no cmd changes.
func Misbehaviors() []Misbehavior {
	return []Misbehavior{
		durationMisbehavior("validity", "response validity period (nextUpdate - thisUpdate)", WithValidity),
		boolMisbehavior("blank-next-update", "omit nextUpdate (responses never expire)", WithBlankNextUpdate()),
		boolMisbehavior("zero-margin", "set thisUpdate to the request time (no clock-skew margin)", WithZeroMargin()),
		durationMisbehavior("this-update-offset", "backdate thisUpdate by this much (negative: future thisUpdate)", WithThisUpdateOffset),
		{Flag: "cached", Usage: "pre-generate responses per update window instead of signing on demand", Bool: true,
			Option: func(string) (ProfileOption, error) { return func(p *Profile) { p.CacheResponses = true }, nil }},
		durationMisbehavior("update-interval", "cache update interval (with -cached; 0 = validity/2)",
			func(d time.Duration) ProfileOption {
				return func(p *Profile) { p.UpdateInterval = d }
			}),
		intMisbehavior("instances", "model a load-balanced farm of this many skewed members",
			func(n int) ProfileOption { return func(p *Profile) { p.Instances = n } }),
		durationMisbehavior("instance-skew", "generation-time skew between farm members (with -instances)",
			func(d time.Duration) ProfileOption { return func(p *Profile) { p.InstanceSkew = d } }),
		intMisbehavior("extra-serials", "unsolicited serials per response", WithExtraSerials),
		{Flag: "malformed", Usage: "serve malformed bodies: zero, empty, js, or truncated",
			Option: func(v string) (ProfileOption, error) {
				kind, err := ParseMalformedKind(v)
				if err != nil {
					return nil, err
				}
				return WithMalformed(kind), nil
			}},
		boolMisbehavior("serial-mismatch", "answer about the wrong serial", WithSerialMismatch()),
		boolMisbehavior("bad-signature", "corrupt response signatures", WithBadSignature()),
		{Flag: "error-status", Usage: "always return an OCSP error: trylater, internal, unauthorized",
			Option: func(v string) (ProfileOption, error) {
				st, err := ParseErrorStatus(v)
				if err != nil {
					return nil, err
				}
				return WithErrorStatus(st), nil
			}},
		durationMisbehavior("revocation-time-skew", "shift OCSP revocation times relative to the CRL", WithRevocationTimeSkew),
		boolMisbehavior("drop-reason-codes", "omit revocation reason codes that the CRL carries", WithDropReasonCodes()),
	}
}

// MisbehaviorFlags accumulates the options selected on a command line,
// in flag-appearance order.
type MisbehaviorFlags struct {
	opts []ProfileOption
}

// BindMisbehaviorFlags registers every Misbehaviors row on fs and
// returns the accumulator whose Profile method builds the resulting
// behavior after fs.Parse.
func BindMisbehaviorFlags(fs *flag.FlagSet) *MisbehaviorFlags {
	m := &MisbehaviorFlags{}
	for _, mb := range Misbehaviors() {
		mb := mb
		record := func(v string) error {
			opt, err := mb.Option(v)
			if err != nil {
				return err
			}
			m.opts = append(m.opts, opt)
			return nil
		}
		if mb.Bool {
			fs.BoolFunc(mb.Flag, mb.Usage, func(v string) error {
				// -flag and -flag=true select the misbehavior;
				// -flag=false is an explicit no-op.
				if on, err := strconv.ParseBool(v); err != nil || !on {
					return err
				}
				return record(v)
			})
		} else {
			fs.Func(mb.Flag, mb.Usage, record)
		}
	}
	return m
}

// Profile builds the selected behavior profile.
func (m *MisbehaviorFlags) Profile() Profile {
	return NewProfile(m.opts...)
}
