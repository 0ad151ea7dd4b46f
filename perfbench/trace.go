package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName names a call from the benchmark into one layer of the engine.
// The traced run wraps every such call in a span; the layer a span is
// charged to is the package whose public function it times.
type spanName uint8

const (
	spOp spanName = iota // one client operation (root span)
	spReopen
	spTxnBegin
	spTxnCommit
	spTxnAbort
	spSnapBegin
	spSnapRelease
	spCoreSearch
	spCoreUpdate
	spCoreMultiGet
	spCoreRangeScan
	spCoreInsert
	spCoreOpen
	spTsbPut
	spTsbSnapshotGet
	spTsbScanAsOf
	spTsbOpen
	spCheckpoint
	spEngineClose
	spEngineOpen
	spAnalyzeRedo
	spFinishRecovery
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spOp:             {"op", "client"},
	spReopen:         {"reopen", "client"},
	spTxnBegin:       {"txn.Begin", "txn"},
	spTxnCommit:      {"txn.Commit", "txn"},
	spTxnAbort:       {"txn.Abort", "txn"},
	spSnapBegin:      {"txn.BeginSnapshot", "txn"},
	spSnapRelease:    {"txn.Snapshot.Release", "txn"},
	spCoreSearch:     {"core.SearchInto", "core"},
	spCoreUpdate:     {"core.Update", "core"},
	spCoreMultiGet:   {"core.MultiGet", "core"},
	spCoreRangeScan:  {"core.RangeScan", "core"},
	spCoreInsert:     {"core.Insert", "core"},
	spCoreOpen:       {"core.Open", "core"},
	spTsbPut:         {"tsb.Put", "tsb"},
	spTsbSnapshotGet: {"tsb.SnapshotGet", "tsb"},
	spTsbScanAsOf:    {"tsb.ScanAsOf", "tsb"},
	spTsbOpen:        {"tsb.Open", "tsb"},
	spCheckpoint:     {"engine.Checkpoint", "engine"},
	spEngineClose:    {"engine.Close", "engine"},
	spEngineOpen:     {"engine.Open", "engine"},
	spAnalyzeRedo:    {"engine.AnalyzeAndRedo", "recovery"},
	spFinishRecovery: {"engine.FinishRecovery", "recovery"},
}

// traceLayers are the layers self time is reported for, in output order.
var traceLayers = []string{"client", "txn", "core", "tsb", "engine"}

type span struct {
	op         uint64 // client operation the span belongs to
	parent     int32  // index of the enclosing span in the same buffer, -1 for a root
	name       spanName
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer records one goroutine's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	op    uint64
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16), op: uint64(client) << 48}
}

// begin opens a span; a root span starts a new client operation.
func (t *tracer) begin(n spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.op++
	}
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: n, start: int64(time.Since(t.epoch))})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// traceSummary is what a set of tracers reports: per-layer self time
// (a span's duration minus what its child spans cover) and the durations
// of each span name.
type traceSummary struct {
	spans  int
	selfNs map[string]int64
	durs   [numSpanNames][]int64
}

func summarize(tracers []*tracer) traceSummary {
	s := traceSummary{selfNs: make(map[string]int64)}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for _, sp := range t.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range t.spans {
			d := sp.end - sp.start
			s.selfNs[spanInfo[sp.name].layer] += d - child[i]
			s.durs[sp.name] = append(s.durs[sp.name], d)
		}
		s.spans += len(t.spans)
	}
	for i := range s.durs {
		sort.Slice(s.durs[i], func(a, b int) bool { return s.durs[i][a] < s.durs[i][b] })
	}
	return s
}

// writeSpans writes every span as one tab-separated line, gzip-compressed.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(w, "client\top\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range tracers {
		for i, sp := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, sp.op, i, sp.parent, spanInfo[sp.name].name, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
