package scanner

import (
	"context"
	"net/http"
	"time"

	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
)

// RetryPolicy controls how Scan retries transient failures. The zero value
// performs a single attempt — the paper's methodology (§5.1 probes each
// target once per hour and classifies whatever comes back). Retries never
// change the paper-facing aggregates: the first attempt's outcome is what
// aggregators see, and salvaged lookups are reported separately.
type RetryPolicy struct {
	// Attempts is the maximum number of attempts including the first;
	// values <= 1 disable retrying.
	Attempts int
	// PerAttemptTimeout, when positive, bounds each attempt with a
	// context deadline (real time — it protects live scans against hung
	// responders).
	PerAttemptTimeout time.Duration
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (exponential backoff). Zero means 1s.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff; zero means 2 minutes.
	MaxBackoff time.Duration
	// Jitter is the fraction (0..1) of the backoff added as
	// deterministic jitter, derived from the target and attempt number
	// so identical campaigns remain bit-for-bit reproducible.
	Jitter float64
	// Sleep waits between attempts. nil means a real timer honoring ctx.
	// Campaigns over the simulated network install VirtualSleep: the
	// backoff then only advances the attempt's virtual timestamp.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Enabled reports whether the policy performs any retries.
func (p RetryPolicy) Enabled() bool { return p.Attempts > 1 }

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff > 0 {
		return p.BaseBackoff
	}
	return time.Second
}

func (p RetryPolicy) cap() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return 2 * time.Minute
}

// Backoff returns the delay before retry number retry (1-based), including
// the deterministic jitter for the given target and vantage.
func (p RetryPolicy) Backoff(retry int, vantage string, tgt Target) time.Duration {
	d := p.base()
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= p.cap() {
			break
		}
	}
	if d > p.cap() {
		d = p.cap()
	}
	if p.Jitter > 0 {
		serial := ""
		if tgt.Serial != nil {
			serial = tgt.Serial.String()
		}
		h := hashx.Sum64(vantage + "|" + tgt.Responder + "|" + serial + "|" + string(rune('0'+retry)))
		frac := float64(h%1000) / 1000 // stable in [0, 1)
		d += time.Duration(p.Jitter * frac * float64(d))
	}
	return d
}

// VirtualSleep is a RetryPolicy.Sleep for campaigns in virtual time: it
// returns immediately (the backoff is applied to the attempt's virtual
// timestamp instead), still honoring cancellation.
func VirtualSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Transient reports whether the observation's outcome is a transient
// failure class worth retrying: DNS and TCP failures, HTTP 5xx, and
// OCSP tryLater. Permanent classes (4xx, malformed bodies, signature or
// serial problems, TLS certificate errors) are the responder's steady
// state and retrying them would only distort the measurement.
func (o Observation) Transient() bool {
	switch o.Class {
	case ClassDNS, ClassTCP:
		return true
	case ClassHTTPStatus:
		return o.HTTPStatus >= http.StatusInternalServerError
	case ClassOCSPError:
		return o.OCSPStatus == ocsp.StatusTryLater
	}
	return false
}

// ScanWithPolicy performs one classified lookup under an explicit retry
// policy (Scan uses the client's default). The returned observation's
// classification and response fields describe the first attempt; retries
// are visible only via Attempts, FinalClass, and Salvaged.
func (c *Client) ScanWithPolicy(ctx context.Context, policy RetryPolicy, vantage netsim.Vantage, at time.Time, tgt Target) Observation {
	return c.scanProbe(ctx, policy, vantage, at, c.newProbe(tgt))
}

// scanProbe is ScanWithPolicy for a prepared probe: the path every lookup
// takes, and the only one a campaign takes.
func (c *Client) scanProbe(ctx context.Context, policy RetryPolicy, vantage netsim.Vantage, at time.Time, p *probe) Observation {
	first := c.attempt(ctx, policy, vantage, at, p)
	first.Attempts = 1
	first.FinalClass = first.Class

	if policy.Enabled() && first.Transient() {
		sleep := policy.Sleep
		if sleep == nil {
			sleep = realSleep
		}
		retryAt := at
		for retry := 1; first.Attempts < policy.Attempts; retry++ {
			delay := policy.Backoff(retry, vantage.Name, p.tgt)
			if err := sleep(ctx, delay); err != nil {
				break
			}
			retryAt = retryAt.Add(delay)
			obs := c.attempt(ctx, policy, vantage, retryAt, p)
			first.Attempts++
			first.FinalClass = obs.Class
			if obs.Class == ClassCanceled {
				break
			}
			if obs.Class == ClassOK {
				first.Salvaged = true
				break
			}
			if !obs.Transient() {
				break
			}
		}
	}

	if c.Metrics != nil {
		c.recordMetrics(first)
	}
	return first
}

// attempt runs one attempt under the policy's per-attempt deadline.
func (c *Client) attempt(ctx context.Context, policy RetryPolicy, vantage netsim.Vantage, at time.Time, p *probe) Observation {
	if policy.PerAttemptTimeout > 0 {
		attemptCtx, cancel := context.WithTimeout(ctx, policy.PerAttemptTimeout)
		defer cancel()
		return c.scanOnce(attemptCtx, vantage, at, p)
	}
	return c.scanOnce(ctx, vantage, at, p)
}

func (c *Client) recordMetrics(o Observation) {
	c.Metrics.Counter("scanner_scans_total").Inc()
	c.Metrics.Counter("scanner_class_" + o.Class.String() + "_total").Inc()
	if o.Attempts > 1 {
		c.Metrics.Counter("scanner_retries_total").Add(int64(o.Attempts - 1))
	}
	if o.Salvaged {
		c.Metrics.Counter("scanner_retry_salvaged_total").Inc()
	}
}
