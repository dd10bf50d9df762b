// Command dsppbench is the placement system's fixed-work benchmark. It
// drives the production paths in-process through their public APIs: the
// dsppd daemon (internal/daemon New/Run, fed JSONL observations through a
// pipe, one Report line read back per decision) and Algorithm 2
// (game.BestResponseCtx), on inputs generated from -seed before any clock
// starts.
//
// Usage:
//
//	dsppbench -workload paper-stream|continental-stream|game-equilibria
//	          [-seed 2012] [-seconds 20] [-trace 0|1] [-scratch dir]
//
// Every workload runs as a closed loop with one decision in flight and a
// fixed number of decisions sized from -seconds, so the work of a run
// never depends on the clock. -trace 0 prints the end-to-end metrics;
// -trace 1 times the same decisions on an untraced build and on one with
// the program's telemetry hub attached, in alternating blocks, and prints
// the per-layer breakdown. The last line of standard
// output is one JSON object; the exit code is non-zero when a check on
// the program's outputs fails. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dspp/internal/telemetry"
)

// defaultSeed is the default workload seed. It also draws every
// workload's warm-up inputs, whatever -seed is, so that set-up does the
// same work on every seed and setup_s moves only with the program.
const defaultSeed = 2012

// bench is one workload: a fixed, seeded set of decisions.
type bench interface {
	// decisions is the number of timed decisions.
	decisions() int
	// tailPct is the nearest-rank percentile reported as decision_tail_ms.
	tailPct() int
	// blockTail reports whether decision_tail_ms is the median of the
	// percentiles of contiguous blocks (blockPercentile), which resists
	// bursts of host interference, rather than the whole run's percentile.
	blockTail() bool
	// daemon reports whether decisions pass through the dsppd daemon.
	daemon() bool
	// procs is the GOMAXPROCS the workload runs at.
	procs() int
	// start builds the system under test (hub nil = untraced) and runs
	// its warm-up decisions. It returns the time that took, excluding
	// the harness's own input preparation.
	start(hub *telemetry.Hub) (session, time.Duration, error)
}

// session is a built system ready for the timed decisions.
type session interface {
	// prepare generates the inputs of decisions [lo, hi), off the clock.
	prepare(lo, hi int)
	// decide runs decision i and checks its output, returning the
	// decision's plan cost. ctx carries the harness's decision span.
	decide(ctx context.Context, i int) (float64, error)
	// finish stops the system and runs the end-of-run checks.
	finish() error
}

// phase accumulates the timed decisions made on one built system.
type phase struct {
	lat      []float64 // per-decision latency, ms, by decision index
	latTotal time.Duration
	wall     time.Duration
	cpu      time.Duration
	costSum  float64
	failed   int
	alloc    uint64 // bytes allocated while timing
	gc       uint32 // GC cycles while timing
	log      io.Writer
	// traced phases only
	tr     *tracing
	events []spanEvent
	layers layerTimes
	reg0   map[string]float64 // registry before the timed decisions
	reg1   map[string]float64 // registry after the system stopped
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsppbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-stream | continental-stream | game-equilibria")
	seed := fs.Int64("seed", defaultSeed, "workload seed (2012 is the default; 7 is held out for claims; continental-stream ignores it)")
	seconds := fs.Int("seconds", 20, "nominal run length; sizes the fixed decision count")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "dsppbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	b, err := newBench(*name, *seed, *seconds, *scratch)
	if err != nil {
		fmt.Fprintln(stderr, "dsppbench:", err)
		return 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(b.procs()))
	var res result
	if *trace == 0 {
		res, err = endToEnd(b, stderr)
	} else {
		res, err = traced(b, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dsppbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dsppbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func newBench(name string, seed int64, seconds int, scratch string) (bench, error) {
	switch name {
	case "paper-stream":
		return newPaperStream(seed, seconds, scratch)
	case "continental-stream":
		return newContinentalStream(seconds)
	case "game-equilibria":
		return newGameEquilibria(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// blocks is how many blocks the timed decisions are cut into. Inputs a
// workload generates per block are made between blocks, off the clock;
// a traced run alternates its untraced and traced systems block by block.
const blocks = 10

// endToEnd builds the system under test and times its fixed decisions in
// blocks with telemetry off. After each block it builds and stops one
// more system, off the clock: setup_s is the median of these set-ups and
// the first, so it samples the host across the run, not in one moment.
func endToEnd(b bench, log io.Writer) (result, error) {
	runtime.GC()
	s, d, err := b.start(nil)
	if err != nil {
		return result{}, err
	}
	setups := []float64{d.Seconds()}
	n := b.decisions()
	ph, err := newPhase(n, nil, log)
	if err != nil {
		return result{}, err
	}
	for k := 0; k < blocks; k++ {
		if err := ph.run(s, k*n/blocks, (k+1)*n/blocks); err != nil {
			return result{}, err
		}
		extra, d, err := b.start(nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		if err := extra.finish(); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		setups = append(setups, d.Seconds())
		runtime.GC() // the stopped system is not the next block's garbage
	}
	if err := ph.finish(s); err != nil {
		return result{}, err
	}
	sorted := slices.Clone(ph.lat)
	slices.Sort(sorted)
	p50, err := nearestRank(sorted, 50)
	if err != nil {
		return result{}, err
	}
	var tail float64
	var tailBlocks int
	if b.blockTail() {
		tail, tailBlocks, err = blockPercentile(ph.lat, b.tailPct())
	} else {
		tail, err = nearestRank(sorted, b.tailPct())
	}
	if err != nil {
		return result{}, err
	}
	slices.Sort(setups)
	ok := float64(n-ph.failed) / float64(n)
	deciles := make([]string, 0, 11)
	for q := 0; q <= 10; q++ {
		deciles = append(deciles, strconv.FormatFloat(sorted[min(n-1, q*n/10)], 'f', 3, 64))
	}
	fmt.Fprintf(log, "dsppbench: latency deciles ms [%s]\n", strings.Join(deciles, " "))
	tailOf := "the whole run"
	if b.blockTail() {
		tailOf = fmt.Sprintf("median of %d blocks", tailBlocks)
	}
	fmt.Fprintf(log, "dsppbench: %d decisions, p50 %.4f ms, p%d %.4f ms (%s), plan_cost %.17g, ok_frac %g, set-ups %v s\n",
		n, p50, b.tailPct(), tail, tailOf, ph.costSum/float64(n), ok, setups)
	return result{
		Correct:   ph.failed == 0,
		Attempted: n,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":             {setups[len(setups)/2], "s"},
			"decision_p50_ms":     {p50, "ms"},
			"decision_tail_ms":    {tail, "ms"},
			"decisions_per_s":     {float64(n) / ph.wall.Seconds(), "1/s"},
			"cpu_ms_per_decision": {ph.cpu.Seconds() * 1e3 / float64(n), "ms"},
			"peak_rss_mb":         {peakRSSMB(), "MB"},
			"plan_cost":           {ph.costSum / float64(n), "USD"},
			"ok_frac":             {ok, "ratio"},
		},
	}, nil
}

// traced builds the system twice, untraced and with a telemetry hub
// writing its trace to memory, and times the same decisions on both in
// alternating blocks, so that host drift during the run reaches both
// alike. The traced system is broken down by layer.
func traced(b bench, log io.Writer) (result, error) {
	n := b.decisions()
	runtime.GC()
	plainSys, _, err := b.start(nil)
	if err != nil {
		return result{}, err
	}
	sink := &spanSink{}
	hub := telemetry.New(telemetry.WithTraceWriter(sink))
	tracedSys, _, err := b.start(hub)
	if err != nil {
		return result{}, err
	}
	plain, err := newPhase(n, nil, log)
	if err != nil {
		return result{}, err
	}
	tr, err := newPhase(n, &tracing{hub: hub, sink: sink, daemon: b.daemon()}, log)
	if err != nil {
		return result{}, err
	}
	for k := 0; k < blocks; k++ {
		lo, hi := k*n/blocks, (k+1)*n/blocks
		if err := plain.run(plainSys, lo, hi); err != nil {
			return result{}, err
		}
		if err := tr.run(tracedSys, lo, hi); err != nil {
			return result{}, err
		}
	}
	if err := plain.finish(plainSys); err != nil {
		return result{}, err
	}
	if err := tr.finish(tracedSys); err != nil {
		return result{}, err
	}
	m := layerMetrics(tr, n)
	m["telemetry.overhead_frac"] = metric{
		1 - plain.latTotal.Seconds()/tr.latTotal.Seconds(), "ratio"}
	m["runtime.alloc_kb_per_decision"] = metric{float64(plain.alloc) / 1024 / float64(n), "kB"}
	m["runtime.gc_cycles_per_1k_decisions"] = metric{float64(plain.gc) * 1000 / float64(n), "count"}

	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, strconv.FormatFloat(m[k].Value, 'g', -1, 64))
	}
	fmt.Fprintf(log, "dsppbench: traced %d decisions, plan_cost %.17g / %.17g (untraced / traced);%s\n",
		n, plain.costSum/float64(n), tr.costSum/float64(n), sb.String())
	failed := plain.failed + tr.failed
	return result{
		Correct:   failed == 0,
		Attempted: 2 * n,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// tracing is a traced phase's telemetry.
type tracing struct {
	hub    *telemetry.Hub
	sink   *spanSink
	daemon bool
}

func newPhase(n int, tr *tracing, log io.Writer) (*phase, error) {
	ph := &phase{lat: make([]float64, n), tr: tr, log: log}
	if tr != nil {
		ph.reg0 = tr.hub.Registry().Snapshot()
		if _, err := tr.sink.drain(nil); err != nil { // the warm-up's spans
			return nil, err
		}
	}
	return ph, nil
}

// run prepares decisions [lo, hi) and times them on a built system, one
// in flight at a time. A decision that fails its checks is counted and
// the loop goes on; an error is returned only when the measurement
// itself cannot be made.
func (ph *phase) run(s session, lo, hi int) error {
	s.prepare(lo, hi)
	var tracer *telemetry.Tracer
	if ph.tr != nil {
		tracer = ph.tr.hub.Tracer()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	ctx := context.Background()
	for i := lo; i < hi; i++ {
		var sp *telemetry.Span
		dctx := ctx
		if tracer != nil {
			sp = tracer.Start(spanDecision, 0)
			dctx = telemetry.ContextWithSpan(ctx, sp)
		}
		start := time.Now()
		cost, err := s.decide(dctx, i)
		d := time.Since(start)
		sp.End()
		ph.lat[i] = float64(d) / float64(time.Millisecond)
		ph.latTotal += d
		if err != nil {
			ph.fail(i, err)
		} else {
			ph.costSum += cost
		}
	}
	ph.wall += time.Since(t0)
	ph.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	ph.gc += ms1.NumGC - ms0.NumGC
	if ph.tr == nil {
		return nil
	}
	// The trace is analysed after the block, not between decisions: a
	// pause there would let the daemon finish its post-report checkpoint
	// off the clock, which the untraced loop charges to the next decision.
	var err error
	if ph.events, err = ph.tr.sink.drain(ph.events[:0]); err != nil {
		return err
	}
	return ph.layers.addBlock(ph.events, ph.tr.daemon)
}

// fail counts decision i as failed, naming the first few on the log.
func (ph *phase) fail(i int, err error) {
	ph.failed++
	if ph.failed <= 3 {
		fmt.Fprintf(ph.log, "dsppbench: decision %d failed its checks: %v\n", i, err)
	}
}

// finish stops the system. A failed end-of-run check counts against the
// last decision.
func (ph *phase) finish(s session) error {
	if err := s.finish(); err != nil {
		if !errors.Is(err, errCheck) {
			return err
		}
		ph.fail(len(ph.lat)-1, err)
	}
	if ph.tr != nil {
		ph.reg1 = ph.tr.hub.Registry().Snapshot()
	}
	return nil
}

// errCheck marks a failed check on the program's outputs, as opposed to
// a harness failure.
var errCheck = errors.New("check failed")

// layerMetrics derives the per-layer metrics from a traced phase: span
// times per decision, and registry counts accumulated while the timed
// decisions ran. Metrics of a layer the workload does not reach read 0.
func layerMetrics(ph *phase, n int) map[string]metric {
	d := func(name string) float64 { return ph.reg1[name] - ph.reg0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perDecision := func(us int64) float64 { return float64(us) / 1e3 / float64(n) }
	lt := ph.layers

	degraded := 0.0
	prefix := telemetry.MetricDegradationSteps + "{"
	for k := range ph.reg1 {
		if strings.HasPrefix(k, prefix) && !strings.Contains(k, `"none"`) {
			degraded += d(k)
		}
	}
	solves := d(telemetry.MetricQPSolves)
	factorizations := d(telemetry.MetricQPFactorizations)
	reused := d(telemetry.MetricQPFactorReused)
	shardSolves := d(telemetry.MetricShardSolves)
	skipped := d(telemetry.MetricShardsSkipped)
	gameRounds := d(telemetry.MetricGameRounds)
	return map[string]metric{
		// The checkpoint counter moves after a period's report, so it is
		// read over the daemon's whole life, warm-up included.
		"daemon.self_ms": {perDecision(lt.daemonSelf), "ms"},
		"daemon.checkpoints_per_decision": {
			ratio(ph.reg1[telemetry.MetricDaemonCheckpoints], ph.reg1[telemetry.MetricDaemonPeriods]), "ratio"},
		"core.step_ms":         {perDecision(lt.step), "ms"},
		"core.self_ms":         {perDecision(lt.stepSelf), "ms"},
		"core.degraded_steps":  {degraded, "count"},
		"decomp.coordinate_ms": {perDecision(lt.coordinate), "ms"},
		"decomp.self_ms":       {perDecision(lt.coordSelf), "ms"},
		"decomp.rounds_per_decision": {
			d(telemetry.MetricCoordinationRounds) / float64(n), "count"},
		"decomp.shard_solves_per_decision": {shardSolves / float64(n), "count"},
		"decomp.skipped_frac":              {ratio(skipped, shardSolves+skipped), "ratio"},
		"decomp.fast_resolve_frac": {
			ratio(d(telemetry.MetricQuotaFastResolves), shardSolves), "ratio"},
		"decomp.busy_frac": {
			ratio(float64(lt.shardBusy), float64(lt.coordinate)*float64(runtime.GOMAXPROCS(0))), "ratio"},
		"qp.solve_ms":            {perDecision(lt.qpSolve), "ms"},
		"qp.solves_per_decision": {solves / float64(n), "count"},
		"qp.iterations_per_solve": {
			ratio(d(telemetry.MetricQPIterations), solves), "count"},
		"qp.warm_frac": {ratio(d(telemetry.MetricQPWarmStarts), solves), "ratio"},
		"qp.corrector_skip_frac": {
			ratio(d(telemetry.MetricQPCorrectorSkips), d(telemetry.MetricQPIterations)), "ratio"},
		"qp.numerical_failures":             {d(telemetry.MetricQPNumericalFailures), "count"},
		"linalg.factorizations_per_solve":   {ratio(factorizations, solves), "count"},
		"linalg.reuse_frac":                 {ratio(reused, reused+factorizations), "ratio"},
		"linalg.rankk_updates_per_decision": {d(telemetry.MetricQPRankKUpdates) / float64(n), "count"},
		"game.equilibrium_ms":               {perDecision(lt.equilibrium), "ms"},
		"game.round_ms":                     {ratio(float64(lt.roundTotal)/1e3, float64(lt.rounds)), "ms"},
		"game.self_ms":                      {perDecision(lt.gameSelf), "ms"},
		"game.rounds_per_equilibrium":       {gameRounds / float64(n), "count"},
		"game.converged_frac":               {d(telemetry.MetricGameConverged) / float64(n), "ratio"},
		"game.qp_solves_per_round":          {ratio(solves, gameRounds), "count"},
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB; NaN when
// /proc is unavailable, which the JSON encoder then refuses.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
