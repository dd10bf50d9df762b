package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"dspp/internal/experiments"
	"dspp/internal/game"
	"dspp/internal/telemetry"
)

// TestFig7GeneratorFidelity feeds the benchmark's game generator Fig 7's
// seeds (seed + 101·n + 977·rep, three draws per cell) and requires the
// experiment's per-cell mean round counts exactly.
func TestFig7GeneratorFidelity(t *testing.T) {
	const seed, reps = 2012, 3
	want, err := experiments.Fig7GameConvergence(seed, fig7MaxPlayers)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range fig7Capacities {
		for n := 1; n <= fig7MaxPlayers; n++ {
			total := 0
			for rep := 0; rep < reps; rep++ {
				res, err := game.BestResponse(fig7Scenario(seed, n, rep, c), fig7Config())
				if err != nil && !errors.Is(err, game.ErrNotConverged) {
					t.Fatalf("cap=%g n=%d rep=%d: %v", c, n, rep, err)
				}
				total += res.Iterations
			}
			if got := total / reps; got != want.Iterations[ci][n-1] {
				t.Errorf("cap=%g n=%d: %d rounds, Fig 7 has %d", c, n, got, want.Iterations[ci][n-1])
			}
		}
	}
}

// TestLayerTimes builds a block of two decisions' trace through a real
// hub: each a daemon-style controller step with no recorded parent and
// two overlapping QP solves under it.
func TestLayerTimes(t *testing.T) {
	sink := &spanSink{}
	hub := telemetry.New(telemetry.WithTraceWriter(sink))
	tr := hub.Tracer()
	for d := 0; d < 2; d++ {
		dec := tr.Start(spanDecision, 0)
		step := tr.Start(telemetry.SpanMPCStep, 0)
		a := tr.Start(telemetry.SpanQPSolve, step.ID())
		b := tr.Start(telemetry.SpanQPSolve, step.ID())
		a.End()
		b.End()
		step.End()
		dec.End()
	}
	events, err := sink.drain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("drained %d events, want 8", len(events))
	}
	var lt layerTimes
	if err := lt.addBlock(events, true); err != nil {
		t.Fatal(err)
	}
	var step, decisions int64
	for _, e := range events {
		switch e.Span {
		case telemetry.SpanMPCStep:
			step += e.DurUS
		case spanDecision:
			decisions += e.DurUS
		}
	}
	if lt.step != step {
		t.Errorf("step %d µs, want the mpc_step spans' %d", lt.step, step)
	}
	if lt.daemonSelf < 0 || lt.daemonSelf > decisions {
		t.Errorf("daemon self %d µs outside [0, %d]", lt.daemonSelf, decisions)
	}
	if lt.stepSelf < 0 || lt.stepSelf > lt.step {
		t.Errorf("step self %d µs outside [0, %d]", lt.stepSelf, lt.step)
	}
	if rest, err := sink.drain(nil); err != nil || len(rest) != 0 {
		t.Errorf("second drain: %d events, %v", len(rest), err)
	}
	if err := lt.addBlock(events[:len(events)-1], true); err == nil {
		t.Error("spans after the last decision span were accepted")
	}
	if err := lt.add(events[:3], true); err == nil {
		t.Error("a decision without its decision span was accepted")
	}
}

// TestPaperStreamOutput runs the smallest paper-stream in both modes and
// requires exactly BENCHMARK.json's metrics, with their units.
func TestPaperStreamOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon for a few seconds")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, log bytes.Buffer
		code := run([]string{"-workload", "paper-stream", "-seconds", "1", "-trace", trace, "-scratch", t.TempDir()}, &out, &log)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: %+v", trace, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
		if trace == "0" && res.Metrics["ok_frac"].Value != 1 {
			t.Errorf("ok_frac %g", res.Metrics["ok_frac"].Value)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, log bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &log); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, output %q", code, out.String())
	}
}
