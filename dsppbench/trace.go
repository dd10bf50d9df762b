package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"dspp/internal/telemetry"
)

// spanDecision is the span the benchmark opens around every timed call
// into the system; the program's own spans nest inside it.
const spanDecision = "decision"

// spanSink is the traced run's in-memory trace: the hub's tracer appends
// JSONL span events to it, and the harness drains it after every block
// of decisions, off the clock, so memory stays bounded by one block.
type spanSink struct {
	mu  sync.Mutex
	buf []byte
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
	return len(p), nil
}

// spanEvent is the part of a span event the layer breakdown reads.
type spanEvent struct {
	Span    string `json:"span"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

func (e *spanEvent) interval() interval { return interval{e.StartUS, e.StartUS + e.DurUS} }

// drain decodes and clears everything written since the last drain,
// appending to dst.
func (s *spanSink) drain(dst []spanEvent) ([]spanEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rest := s.buf
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(line) == 0 {
			continue
		}
		var e spanEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return dst, fmt.Errorf("trace event %q: %w", line, err)
		}
		dst = append(dst, e)
	}
	s.buf = s.buf[:0]
	return dst, nil
}

// layerTimes accumulates span time per layer over the traced decisions,
// in trace microseconds.
type layerTimes struct {
	daemonSelf  int64 // decision minus its controller steps (daemon workloads)
	step        int64 // mpc_step: the controller step, monolithic or decomposed
	stepSelf    int64 // mpc_step minus its qp_solve / coordinate children
	coordinate  int64
	coordSelf   int64 // coordinate minus the union of its shard_solve children
	shardBusy   int64 // Σ shard_solve, concurrent across workers
	qpSolve     int64 // Σ qp_solve, concurrent across workers
	equilibrium int64 // best_response
	gameSelf    int64 // best_response minus its rounds
	roundTotal  int64 // Σ best_response_round
	rounds      int
}

// addBlock folds in the spans of consecutive decisions. Decisions run
// one at a time, and a decision's span ends after all of its own, so
// each decision span closes its group.
func (lt *layerTimes) addBlock(events []spanEvent, isDaemon bool) error {
	from := 0
	for i := range events {
		if events[i].Span == spanDecision {
			if err := lt.add(events[from:i+1], isDaemon); err != nil {
				return err
			}
			from = i + 1
		}
	}
	if from != len(events) {
		return fmt.Errorf("%d spans after the last %s span", len(events)-from, spanDecision)
	}
	return nil
}

// add folds in one decision's spans. Spans with no recorded parent are
// the daemon's controller steps, which cannot see the harness's span
// through the pipe; they belong to the one decision in flight.
func (lt *layerTimes) add(events []spanEvent, isDaemon bool) error {
	var decision *spanEvent
	children := make(map[uint64][]interval)
	var roots []interval
	for i := range events {
		e := &events[i]
		switch {
		case e.Span == spanDecision:
			if decision != nil {
				return fmt.Errorf("two %s spans in one decision", spanDecision)
			}
			decision = e
		case e.Parent == 0:
			roots = append(roots, e.interval())
		default:
			children[e.Parent] = append(children[e.Parent], e.interval())
		}
	}
	if decision == nil {
		return fmt.Errorf("decision without a %s span", spanDecision)
	}
	if isDaemon {
		lt.daemonSelf += selfTime(decision.interval(), roots)
	}
	for i := range events {
		e := &events[i]
		switch e.Span {
		case telemetry.SpanMPCStep:
			lt.step += e.DurUS
			lt.stepSelf += selfTime(e.interval(), children[e.ID])
		case telemetry.SpanCoordinate:
			lt.coordinate += e.DurUS
			lt.coordSelf += selfTime(e.interval(), children[e.ID])
		case telemetry.SpanShardSolve:
			lt.shardBusy += e.DurUS
		case telemetry.SpanQPSolve:
			lt.qpSolve += e.DurUS
		case telemetry.SpanBestResponse:
			lt.equilibrium += e.DurUS
			lt.gameSelf += selfTime(e.interval(), children[e.ID])
		case telemetry.SpanBestResponseRound:
			lt.roundTotal += e.DurUS
			lt.rounds++
		}
	}
	return nil
}
