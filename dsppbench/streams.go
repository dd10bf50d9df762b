package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dspp"
	"dspp/internal/core"
	"dspp/internal/daemon"
	"dspp/internal/decomp"
	"dspp/internal/telemetry"
	"dspp/internal/workload"
)

// Sizing. The decision counts are fixed functions of -seconds, chosen so
// a run takes about that long on a 2-core x86 host (Go 1.24), and never
// fewer than the tail percentile needs; they never depend on how fast the
// host actually is.
const (
	// paperPerSecond is paper-stream's nominal decision rate.
	paperPerSecond = 1000
	// paperTail is paper-stream's tail percentile. Its slowest decisions
	// wait on filesystem stalls in the per-period checkpoint write (3-6 ms
	// against ~1 ms of period work), which follow the host's disk load:
	// over ten seeds the p99 spread 37% and the p95 up to 60%. In a quiet
	// hour, time off the CPU was 12% of the p90 and 18% of the p95.
	paperTail = 90
	// paperWarmup fills dsppd's 96-period history (the checkpoint carries
	// it and grows until then) before the clock starts.
	paperWarmup = 120
	// continentalPerSecond is continental-stream's nominal decision rate;
	// the timed phase is rounded up to whole 24-period days.
	continentalPerSecond = 6
	// continentalWarmup covers the cold first period and the first
	// warm-started one.
	continentalWarmup = 2
	periodsPerDay     = 24
)

// streamBench is a dsppd workload: pre-encoded observation lines, one per
// control period, warm-up periods first.
type streamBench struct {
	name   string
	warmup int
	n      int
	tail   int
	lines  [][]byte
	build  func() (*core.Instance, error)
	config daemon.Config
	ckpt   string // checkpoint path prefix, "" for none
	nprocs int
	starts int // systems started, numbering their checkpoints
}

func (b *streamBench) decisions() int  { return b.n }
func (b *streamBench) tailPct() int    { return b.tail }
func (b *streamBench) blockTail() bool { return true }
func (b *streamBench) daemon() bool    { return true }
func (b *streamBench) procs() int      { return b.nprocs }

// paperSites returns the paper instance's data centers (San Jose,
// Houston, Atlanta, Chicago, priced by their regions' diurnal server
// curves) and its 8 demand metros, the most populous cities hosting no
// DC — dsppd's default instance.
func paperSites() (dcs, metros []dspp.City, prices []dspp.DiurnalServerPrice, err error) {
	for _, site := range []struct{ city, region string }{
		{"San Jose", "CA"}, {"Houston", "TX"}, {"Atlanta", "GA"}, {"Chicago", "IL"},
	} {
		city, ok := dspp.CityByName(site.city)
		if !ok {
			return nil, nil, nil, fmt.Errorf("missing city %q", site.city)
		}
		region, ok := dspp.RegionByName(site.region)
		if !ok {
			return nil, nil, nil, fmt.Errorf("missing region %q", site.region)
		}
		dcs = append(dcs, city)
		prices = append(prices, dspp.DiurnalServerPrice{Region: region, Class: dspp.MediumVM})
	}
	for _, c := range dspp.USCities() {
		if len(metros) == 8 {
			break
		}
		hostsDC := false
		for _, d := range dcs {
			hostsDC = hostsDC || d.Name == c.Name
		}
		if !hostsDC {
			metros = append(metros, c)
		}
	}
	return dcs, metros, prices, nil
}

// paperInstance builds dsppd's default instance: 30 ms CDN-class SLA at
// μ = 150, reconfiguration weight 2e-5 and 2000 servers per DC.
func paperInstance() (*core.Instance, error) {
	dcs, metros, _, err := paperSites()
	if err != nil {
		return nil, err
	}
	net, err := dspp.BuildGeoNetwork(dcs, metros, 0.002)
	if err != nil {
		return nil, err
	}
	sla, err := dspp.SLAMatrix(net.LatencyMatrix(), dspp.SLAConfig{Mu: 150, MaxDelay: 0.03})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(dcs))
	caps := make([]float64, len(dcs))
	for i := range weights {
		weights[i], caps[i] = 2e-5, 2000
	}
	return dspp.NewInstance(dspp.InstanceConfig{SLA: sla, ReconfigWeights: weights, Capacities: caps})
}

// newPaperStream generates paper-stream's observations: per-metro Poisson
// demand around a population-weighted diurnal rate (3000 req/s in total
// at peak, phase-shifted by longitude) and each DC's diurnal server
// price, hourly — the dsppsim generator. The warm-up periods' draws come
// from defaultSeed, the timed periods' from seed.
func newPaperStream(seed int64, seconds int, scratch string) (*streamBench, error) {
	_, metros, prices, err := paperSites()
	if err != nil {
		return nil, err
	}
	n := max(seconds*paperPerSecond, minSamples(paperTail))
	periods := paperWarmup + n
	total := 0
	for _, m := range metros {
		total += m.Population
	}
	demand := make([][]float64, periods)
	for k := range demand {
		demand[k] = make([]float64, len(metros))
	}
	warmRng, rng := rand.New(rand.NewSource(defaultSeed)), rand.New(rand.NewSource(seed))
	for v, m := range metros {
		base := 3000 * float64(m.Population) / float64(total)
		model, err := dspp.NewDiurnalDemand(base*0.15, base)
		if err != nil {
			return nil, err
		}
		model.PhaseShift = int(m.Lon/15) + 6
		for k := range demand {
			r := rng
			if k < paperWarmup {
				r = warmRng
			}
			arrivals, err := workload.SamplePoisson(model.Rate(k), 1, r)
			if err != nil {
				return nil, err
			}
			demand[k][v] = float64(arrivals)
		}
	}
	lines := make([][]byte, periods)
	for k := range lines {
		obs := daemon.Observation{Demand: demand[k], Prices: make([]float64, len(prices))}
		for l, p := range prices {
			obs.Prices[l] = p.Price(k)
		}
		if lines[k], err = encodeObservation(obs); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	return &streamBench{
		name:   "paper-stream",
		warmup: paperWarmup,
		n:      n,
		tail:   paperTail,
		lines:  lines,
		build:  paperInstance,
		config: daemon.Config{
			Horizon:   5,
			Predictor: dspp.PersistencePredictor{},
			History:   96,
			Mu:        150,
		},
		ckpt: filepath.Join(scratch, "paper-stream.ckpt"),
		// One P: the daemon and the harness hand each period over through
		// pipes, one at a time, so a second P adds only cross-thread
		// wake-ups.
		nprocs: 1,
	}, nil
}

// continentalConfig is the BENCH_4/5 n120-shards4 scenario.
var continentalConfig = dspp.ContinentalScenarioConfig{Locations: 120, DCSites: 12, Seed: 41, Horizon: 2}

// newContinentalStream generates continental-stream's observations: the
// scenario's steady demand under dsppsim's diurnal factor at amplitude
// 0.1 (phase-shifted by longitude) and its per-DC prices, hourly from
// hour 0, over whole days. The stream is fixed by the scenario: -seed
// does not change it. How much coordination a period needs jumps with
// small changes in demand. With each location's amplitude drawn within
// 5% of 0.1 per seed, the shard solves of 120 timed periods ranged from
// 3700 to 4298 over seeds 1-4, and their per-period p90 from 57 to 74.
// A run of a few hundred decisions cannot average that out, so seeded
// inputs would measure the inputs rather than the program.
func newContinentalStream(seconds int) (*streamBench, error) {
	scn, err := dspp.NewContinentalScenario(continentalConfig)
	if err != nil {
		return nil, err
	}
	n := max(seconds*continentalPerSecond, minSamples(90))
	n = (n + periodsPerDay - 1) / periodsPerDay * periodsPerDay
	const amp = 0.1
	lines := make([][]byte, continentalWarmup+n)
	for k := range lines {
		obs := daemon.Observation{
			Demand: make([]float64, continentalConfig.Locations),
			Prices: scn.Prices[0],
		}
		for v := range obs.Demand {
			phase := scn.Net.Access[v].City.Lon/15 + 6
			obs.Demand[v] = scn.Demand[0][v] * ((1 - amp) + amp*math.Sin(2*math.Pi*(float64(k)+phase)/24))
		}
		if lines[k], err = encodeObservation(obs); err != nil {
			return nil, err
		}
	}
	return &streamBench{
		name:   "continental-stream",
		warmup: continentalWarmup,
		n:      n,
		tail:   90,
		lines:  lines,
		build: func() (*core.Instance, error) {
			s, err := dspp.NewContinentalScenario(continentalConfig)
			if err != nil {
				return nil, err
			}
			return s.Inst, nil
		},
		// dsppd -continental's options, but shards of 30 locations: at
		// 60 the bypass cost model sends n120 to the monolithic solver.
		config: daemon.Config{
			Horizon:   2,
			Predictor: dspp.PersistencePredictor{},
			History:   96,
			Mu:        1000,
			Decomp: &decomp.Options{
				MaxShardSize:   30,
				RankK:          true,
				PeriodCarryTol: 1e-3,
			},
		},
		// Two P, so that the four shards solve in parallel as in dsppd.
		// On the 2-vCPU reference host, timings spread about as much as
		// at one P, and set-up spreads more.
		nprocs: min(2, runtime.NumCPU()),
	}, nil
}

func encodeObservation(obs daemon.Observation) ([]byte, error) {
	b, err := json.Marshal(obs)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// start builds the instance and an unbudgeted daemon (no anytime, soft
// or hold rung can fire because a decision was slow, and the watchdog is
// off), starts its Run loop on a pipe, and runs the warm-up periods.
func (b *streamBench) start(hub *telemetry.Hub) (session, time.Duration, error) {
	// A run keeps more than one daemon at a time (untraced and traced,
	// or the timed one and a set-up sample); each gets its own checkpoint.
	ckpt := b.ckpt
	if ckpt != "" {
		ckpt = fmt.Sprintf("%s.%d", ckpt, b.starts)
		b.starts++
		if err := removeCheckpoint(ckpt); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	inst, err := b.build()
	if err != nil {
		return nil, 0, err
	}
	cfg := b.config
	cfg.Instance = inst
	cfg.CheckpointPath = ckpt
	cfg.Telemetry = hub
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	cfg.Out = outW
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &streamSession{b: b, d: d, inst: inst, ckpt: ckpt, in: inW, out: bufio.NewReader(outR), cancel: cancel, done: make(chan error, 1)}
	go func() {
		err := d.Run(ctx, inR)
		// Unblock the harness on both pipes once the loop is gone.
		inR.CloseWithError(errDaemonStopped)
		outW.CloseWithError(errDaemonStopped)
		s.done <- err
	}()
	for i := 0; i < b.warmup; i++ {
		if _, err := s.period(i); err != nil {
			s.finish() //nolint:errcheck // the warm-up error is the one to report
			return nil, 0, fmt.Errorf("%s warm-up period %d: %w", b.name, i, err)
		}
	}
	return s, time.Since(t0), nil
}

var errDaemonStopped = errors.New("daemon stopped")

// streamSession is one running daemon.
type streamSession struct {
	b      *streamBench
	d      *daemon.Daemon
	inst   *core.Instance
	ckpt   string
	in     *io.PipeWriter
	out    *bufio.Reader
	cancel context.CancelFunc
	done   chan error
}

// period sends stream line k and reads its report.
func (s *streamSession) period(k int) (daemon.Report, error) {
	var rep daemon.Report
	if _, err := s.in.Write(s.b.lines[k]); err != nil {
		return rep, fmt.Errorf("send observation: %w", err)
	}
	line, err := s.out.ReadSlice('\n')
	if err != nil {
		return rep, fmt.Errorf("read report: %w", err)
	}
	if err := json.Unmarshal(line, &rep); err != nil {
		return rep, fmt.Errorf("decode report %q: %w", line, err)
	}
	if err := checkReport(rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// checkReport accepts a report only from a full solve: no error, a mode
// that is a complete plan, and a finite cost.
func checkReport(rep daemon.Report) error {
	if rep.Err != "" {
		return fmt.Errorf("period %d: %s: %w", rep.Period, rep.Err, errCheck)
	}
	switch rep.Mode {
	case "none", "cold-restart", "monolithic":
	default:
		return fmt.Errorf("period %d: mode %q is not a full solve: %w", rep.Period, rep.Mode, errCheck)
	}
	if math.IsNaN(rep.Cost) || math.IsInf(rep.Cost, 0) {
		return fmt.Errorf("period %d: cost %g: %w", rep.Period, rep.Cost, errCheck)
	}
	return nil
}

// prepare does nothing: the observation lines are encoded up front.
func (s *streamSession) prepare(lo, hi int) {}

func (s *streamSession) decide(_ context.Context, i int) (float64, error) {
	rep, err := s.period(s.b.warmup + i)
	return rep.Cost, err
}

// finish ends the stream, waits for the daemon's loop to drain and exit,
// removes its checkpoint, and checks the final allocation against the
// instance.
func (s *streamSession) finish() error {
	s.in.Close()
	err := <-s.done
	s.cancel()
	if err != nil {
		return fmt.Errorf("%s daemon: %w", s.b.name, err)
	}
	if s.ckpt != "" {
		if err := removeCheckpoint(s.ckpt); err != nil {
			return err
		}
	}
	if err := s.inst.CheckState(s.d.State()); err != nil {
		return fmt.Errorf("%s final state: %v: %w", s.b.name, err, errCheck)
	}
	return nil
}

// removeCheckpoint deletes a checkpoint and its temporary file, if any.
func removeCheckpoint(path string) error {
	for _, p := range []string{path, path + ".tmp"} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
