package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchFile mirrors BENCHMARK.json at the repository root.
type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func tinyRep(t *testing.T, w *workload, seed int64, traced bool, faults string) *RepResult {
	t.Helper()
	res, _, err := runRep(w, tinySize(), seed, traced, faults)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return res
}

// Two runs of one seed simulate the same thing, so their digests match; a
// traced run simulates the same thing as an untraced one.
func TestDigestRepeatsForSeed(t *testing.T) {
	for _, w := range workloads {
		a := tinyRep(t, w, 7, false, "")
		b := tinyRep(t, w, 7, false, "")
		tr := tinyRep(t, w, 7, true, "")
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, digests %s and %s", w.name, a.Digest, b.Digest)
		}
		if a.Digest != tr.Digest {
			t.Errorf("%s: traced digest %s differs from untraced %s", w.name, tr.Digest, a.Digest)
		}
		if c := tinyRep(t, w, 8, false, ""); c.Digest == a.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.name)
		}
	}
}

// Every metric BENCHMARK.json names is printed, with its unit and a finite
// value, and the verdict carries exactly the end-to-end or per-layer set.
func TestEveryMetricNamedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range workloads {
		ru := &run{
			reps:   []*RepResult{tinyRep(t, w, 3, false, "")},
			traced: []*RepResult{tinyRep(t, w, 3, true, "")},
		}
		check := func(kind string, got []metric, want []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}) {
			if len(got) != len(want) {
				t.Errorf("%s %s: %d metrics, BENCHMARK.json has %d", w.name, kind, len(got), len(want))
			}
			for i := range min(len(got), len(want)) {
				g, wt := got[i], want[i]
				if g.Name != wt.Name || g.Unit != wt.Unit {
					t.Errorf("%s %s #%d: %s [%s], BENCHMARK.json has %s [%s]", w.name, kind, i, g.Name, g.Unit, wt.Name, wt.Unit)
				}
				if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
					t.Errorf("%s %s: %s = %v", w.name, kind, g.Name, g.Value)
				}
			}
		}
		check("end_to_end", ru.endToEnd(), bf.EndToEnd)
		check("per_layer", ru.perLayer(), bf.PerLayer)
		for _, m := range ru.endToEnd() {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
			}
		}
	}
}

// Injected optical read faults show up as failed operations instead of
// being swallowed.
func TestFaultsRaiseFailedOpRatio(t *testing.T) {
	failed := func(faults string) float64 {
		ru := &run{reps: []*RepResult{tinyRep(t, coldRead, 5, false, faults)}}
		for _, m := range ru.perLayer() {
			if m.Name == "failed_op_ratio" {
				return m.Value
			}
		}
		t.Fatal("failed_op_ratio not reported")
		return 0
	}
	clean, faulty := failed(""), failed("optical.read:p=0.2")
	if faulty <= clean {
		t.Errorf("failed_op_ratio %v with optical.read:p=0.2, %v without", faulty, clean)
	}
}
