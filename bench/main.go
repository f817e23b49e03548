// Command bench is the repository benchmark. For one workload it builds
// the system under test, warms it up, drives it from outside through the
// layers' public APIs, checks that every output is correct, and prints
// one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics that
// BENCHMARK.json bounds; a traced run (-trace 1) records spans at the
// boundaries the benchmark owns, writes them to
// <trace-dir>/<workload>.spans.jsonl, prints a layer table on standard
// error, and reports the per-layer metrics. bench/run.sh builds the
// binary from the checkout and passes its arguments through:
//
//	bash bench/run.sh --workload get-hot --seed 1 --seconds 20 --trace 0
//
// See bench/README.md for the workloads, the metric dictionary, and the
// measured spreads behind the regression bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// setupRuns is how many times an untraced serving run sets its tier up.
const setupRuns = 15

// config sizes one run. defaultConfig is what the command uses; the test
// shrinks every duration.
type config struct {
	seed    uint64
	measure time.Duration // the measured span of the run (--seconds)
	warmup  time.Duration // untimed closed-loop warm-up of a serving tier
	window  time.Duration // closed-loop windows the measured span is cut into
	// campaignDays is the virtual length of one campaign.
	campaignDays int
	// probeIters is the iteration count of the cheap in-process layer
	// calls; the signing calls run probeIters/40.
	probeIters int
	trace      bool
	traceDir   string
	workDir    string
}

func defaultConfig(seed uint64, seconds int) config {
	return config{
		seed:         seed,
		measure:      time.Duration(seconds) * time.Second,
		warmup:       2 * time.Second,
		window:       250 * time.Millisecond,
		campaignDays: 7,
		probeIters:   20000,
		traceDir:     filepath.Join(".bench_build", "trace"),
		workDir:      ".bench_build",
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what a workload run observed before it becomes a
// result: operation counts, failed checks, and metrics.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed operation or check; only the first few messages
// are kept for standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// failN records n failed operations under one message.
func (o *outcome) failN(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.fail(format, args...)
	o.failed += n - 1
}

// check counts one correctness check as attempted and records it as
// failed unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) result() result {
	return result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
}

// workloadOrder lists the workloads in presentation order.
var workloadOrder = []string{"get-hot", "post-sign", "report-ingest", "campaign"}

func runWorkload(ctx context.Context, name string, cfg config) (*outcome, error) {
	switch name {
	case "get-hot", "post-sign", "report-ingest":
		return runServing(ctx, name, cfg)
	case "campaign":
		return runCampaignWorkload(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, workloadOrder)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: get-hot, post-sign, report-ingest, campaign, or all")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "measured seconds per workload run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for <workload>.spans.jsonl in a traced run")
		workDir  = flag.String("work-dir", ".bench_build", "scratch directory for stores and report logs")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *workload == "" {
		fmt.Fprintln(os.Stderr, "usage: bench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: pinning to one CPU: %v\n", err)
		os.Exit(1)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	cfg := defaultConfig(*seed, *seconds)
	cfg.trace = *trace == 1
	cfg.traceDir = *traceDir
	cfg.workDir = *workDir
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	allCorrect := true
	for _, name := range names {
		out, err := runWorkload(context.Background(), name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, p := range out.problems {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", name, p)
		}
		res := out.result()
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: encoding result: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// cpuSet is a Linux cpu_set_t for up to 1024 CPUs.
type cpuSet [16]uint64

func affinity(call uintptr, set *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU restricts the process to the last CPU it may run on and
// re-executes it, so that the Go runtime starts with GOMAXPROCS=1 and
// every thread it makes stays on that CPU. The system under test and its
// load generator then share one CPU, and each request's wake-ups stay on
// it. Spread across two vCPUs, they cross between them through the
// hypervisor, whose cost shifts with the other tenants' load: on the
// 2-vCPU VM the bounds were measured on, that made the round trip switch
// between ~24 µs and ~40 µs for seconds at a time. A process that already
// runs on one CPU is left as it is.
func pinToOneCPU() error {
	var set cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &set); err != nil {
		return err
	}
	last, n := -1, 0
	for i, word := range set {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				last, n = i*64+b, n+1
			}
		}
	}
	if n <= 1 {
		return nil
	}
	var one cpuSet
	one[last/64] = 1 << (last % 64)
	// The affinity set here is the calling thread's, and execve keeps it,
	// so both calls must come from the same thread.
	runtime.LockOSThread()
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// splitmix64 is the seed mixer every input pick goes through: input i of
// a run is a pure function of splitmix64(seed ^ i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// median returns the middle of vs (the mean of the two middles for an
// even count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportLoad sets the throughput and latency metrics, each the median over
// a run's windows: rates holds each throughput window's operations per
// second, lats each latency window's summary, all at reference speed. It
// returns how many samples the latency metrics rest on.
func reportLoad(o *outcome, rates []float64, lats []roundTrips) int {
	var p50s, p99s []float64
	samples := 0
	for _, l := range lats {
		p50s = append(p50s, l.p50)
		p99s = append(p99s, l.p99)
		samples += l.n
	}
	o.set("throughput_rps", "req/s", median(rates))
	o.set("latency_p50_us", "us", median(p50s))
	o.set("latency_p99_us", "us", median(p99s))
	return samples
}

// roundTrips summarises one latency window: its sample count and exact
// p50 and p99 in microseconds.
type roundTrips struct {
	n        int
	p50, p99 float64
}

func newRoundTrips(ds []time.Duration) roundTrips {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return roundTrips{n: len(ds), p50: quantileUsSorted(ds, 0.50), p99: quantileUsSorted(ds, 0.99)}
}

// atReference returns r brought to reference speed from a host that ran
// slow times slower.
func (r roundTrips) atReference(slow float64) roundTrips {
	r.p50 /= slow
	r.p99 /= slow
	return r
}

// quantileUsSorted returns the q-quantile of sorted ds in microseconds,
// interpolated between the two nearest samples.
func quantileUsSorted(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	pos := q * float64(len(ds)-1)
	i := int(pos)
	if i+1 == len(ds) {
		return float64(ds[i]) / 1e3
	}
	return (float64(ds[i]) + (pos-float64(i))*float64(ds[i+1]-ds[i])) / 1e3
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu   time.Duration // user + system CPU (getrusage)
	alloc uint64        // cumulative heap bytes allocated
	gcCPU float64       // cumulative GC CPU seconds (runtime/metrics estimate)
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcCPU: gc[0].Value.Float64(),
	}
}

// usageDelta accumulates resource use over the measured parts of a run.
type usageDelta struct {
	cpu   time.Duration
	alloc uint64
	gcCPU float64
	ops   int64
}

func (d *usageDelta) add(from, to usage, ops int64) {
	d.cpu += to.cpu - from.cpu
	d.alloc += to.alloc - from.alloc
	d.gcCPU += to.gcCPU - from.gcCPU
	d.ops += ops
}

// report sets the runtime.* per-layer metrics.
func (d *usageDelta) report(o *outcome) {
	var cpuPerOp, allocPerOp, gcFrac float64
	if d.ops > 0 {
		cpuPerOp = float64(d.cpu.Microseconds()) / float64(d.ops)
		allocPerOp = float64(d.alloc) / float64(d.ops)
	}
	if d.cpu > 0 {
		gcFrac = d.gcCPU / d.cpu.Seconds()
	}
	o.set("runtime.cpu_us_per_op", "us", cpuPerOp)
	o.set("runtime.alloc_bytes_per_op", "B", allocPerOp)
	o.set("runtime.gc_cpu_frac", "ratio", gcFrac)
}

// settle collects the garbage earlier work left and returns the freed
// memory to the operating system, so that every set-up starts from the
// same state, as in a fresh process: charged only for its own work, and
// for faulting in every page it allocates.
func settle() { debug.FreeOSMemory() }

// liveHeapMiB returns the heap still in use after two collections (the
// second empties the sync.Pool victim caches the first one kept).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
