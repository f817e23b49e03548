package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/lint"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec pins BENCHMARK.json to the program: the workloads it names
// are the ones the program runs, and the bounds follow the contract.
func TestSpec(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadOrder)
	}
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	var layers []string
	for _, m := range s.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	var program []string
	for _, m := range layerMetrics {
		program = append(program, m.name+" "+m.unit)
	}
	if !slices.Equal(layers, program) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layers, program)
	}
}

func testConfig(t *testing.T, trace bool) config {
	cfg := defaultConfig(7, 1)
	cfg.measure = 600 * time.Millisecond
	cfg.warmup = 100 * time.Millisecond
	cfg.window = 100 * time.Millisecond
	cfg.campaignDays = 2
	cfg.probeIters = 400
	cfg.trace = trace
	cfg.traceDir = t.TempDir()
	cfg.workDir = t.TempDir()
	return cfg
}

// TestWorkloads runs every workload briefly, untraced and traced: the
// checks must pass and every metric BENCHMARK.json names must be
// reported, finite, with its unit.
func TestWorkloads(t *testing.T) {
	s := readSpec(t)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := testConfig(t, trace)
				out, err := runWorkload(context.Background(), name, cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				res := out.result()
				if !res.Correct {
					t.Fatalf("trace=%v: checks failed: %v", trace, out.problems)
				}
				want := map[string]string{}
				if trace {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics reported, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not reported", trace, n)
					case !metricName.MatchString(n):
						t.Errorf("%s: not a valid metric name", n)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, want %q", n, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: value %v is not finite", n, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("%s: end-to-end value %v must be positive", n, m.Value)
					}
				}
				if trace {
					checkTrace(t, name, cfg.traceDir, res.Metrics)
				}
			}
		})
	}
}

// checkTrace checks a traced run's spans and layer sums: spans are
// well-formed, every server span lies within its request's client span,
// and on a serving workload the layers' median self times add up to the
// round trip's median within 15%.
func checkTrace(t *testing.T, name, dir string, m map[string]metric) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	if !spansNest(spans) {
		t.Error("a server span lies outside its client span")
	}
	if name == "campaign" {
		return
	}
	rtt := m["http.rtt_p50_us"].Value
	serve := m["ocspserver.serve_p50_us"].Value + m["expectstaple.serve_p50_us"].Value
	sum := m["http.self_p50_us"].Value + serve
	if m["http.self_p50_us"].Value < 0 || serve <= 0 || math.Abs(sum-rtt) > 0.15*rtt {
		t.Errorf("self times (client %v us + server %v us) do not add up to the round trip %v us",
			m["http.self_p50_us"].Value, serve, rtt)
	}
}

// TestLintClean runs the repository's analyzers over the benchmark, which
// the repository's own lint test does not reach: it is a module of its
// own.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the benchmark and its dependencies; skipped in -short")
	}
	diags, err := lint.Run(".", lint.All(), nil, "./...")
	if err != nil {
		t.Fatalf("running the analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestInputsAreSeeded checks that a workload's inputs are a function of
// the seed alone.
func TestInputsAreSeeded(t *testing.T) {
	inputs := func(seed uint64) []string {
		cfg := testConfig(t, false)
		cfg.seed = seed
		tr, err := buildOCSPTier(cfg, false, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.close()
		var out []string
		for _, rq := range tr.reqs {
			out = append(out, string(rq.body))
		}
		for _, b := range reportBodies(seed) {
			out = append(out, string(b))
		}
		return out
	}
	a, b, c := inputs(1), inputs(1), inputs(2)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same inputs")
	}
}
