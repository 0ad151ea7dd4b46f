package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSmoke runs every workload at a tiny size with a fixed seed, untraced
// and traced, and checks that every listed metric is emitted with its
// unit and that the correctness checks pass on the core-tree workloads.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.4, trace: traced, out: t.TempDir(), tiny: true}
			res, err := runWorkload(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				got, ok := res.Metrics[s.name]
				if !ok || got.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, s.name, got, s.unit)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: no operations attempted", name, traced)
			}
			if name == "timetravel" {
				// Not asserted: see README.md, "Known defect".
				t.Logf("timetravel trace=%v: correct=%v failed=%d", traced, res.Correct, res.Failed)
				continue
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d", name, traced, res.Correct, res.Failed)
			}
		}
	}
}

// TestSeedDeterminism: the same seed gives every client the same input
// stream; another seed gives another.
func TestSeedDeterminism(t *testing.T) {
	draw := func(seed int64, client int) []uint64 {
		g := newKeyGen(seed, client, 100_000)
		out := make([]uint64, 0, 3000)
		for i := 0; i < 1000; i++ {
			out = append(out, g.zipfKey(), g.uniform(100_000), uint64(g.percent()))
		}
		return out
	}
	equal := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for c := 0; c < clients; c++ {
		if !equal(draw(42, c), draw(42, c)) {
			t.Errorf("client %d: seed 42 gave two different streams", c)
		}
		if equal(draw(42, c), draw(43, c)) {
			t.Errorf("client %d: seeds 42 and 43 gave the same stream", c)
		}
	}
	if equal(draw(42, 0), draw(42, 1)) {
		t.Error("clients 0 and 1 drew the same stream")
	}
}

// TestValueCheck: a value passes the check only for its own key.
func TestValueCheck(t *testing.T) {
	var buf [valueLen]byte
	v := makeValue(buf[:], 12345, writeID(1, 77))
	if seq, err := checkValue(12345, v); err != nil || seq != writeID(1, 77) {
		t.Fatalf("checkValue = %#x, %v", seq, err)
	}
	if _, err := checkValue(12346, v); err == nil {
		t.Error("value accepted for another key")
	}
	v[60] ^= 1
	if _, err := checkValue(12345, v); err == nil {
		t.Error("corrupt value accepted")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json lists exactly the metrics the
// program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.code))
			continue
		}
		for i := range c.code {
			if c.file[i].Name != c.code[i].name || c.file[i].Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					i, c.file[i].Name, c.file[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
