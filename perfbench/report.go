package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// verdict is the last line of a run's output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDigest combines the untraced repetitions' simulation digests.
func runDigest(reps []*RepResult) string {
	h := sha256.New()
	for _, r := range reps {
		fmt.Fprintln(h, r.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// judge counts logical operations (a shed write retried until acknowledged
// is one operation) and their failures. Output is correct when no read
// returned wrong bytes and every acknowledged write read back intact.
func (ru *run) judge() (correct bool, attempted, failed int64) {
	correct = true
	for _, r := range append(append([]*RepResult(nil), ru.reps...), ru.traced...) {
		if r.ReadWrong > 0 || r.VerifyLost > 0 || r.VerifyWrong > 0 {
			correct = false
		}
	}
	for _, r := range ru.reps {
		attempted += r.LogicalOps
		failed += r.LogicalFails + r.VerifyLost + r.VerifyWrong
	}
	return correct, attempted + int64(ru.crashed), failed + int64(ru.crashed)
}

// report prints the metric table, the digests and the verdict line, and
// returns the exit code: 1 when outputs were wrong.
func report(out io.Writer, w *workload, seed int64, ru *run, trace bool) int {
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, seed, w.why)
	for _, r := range ru.reps {
		fmt.Fprintf(out, "rep seed %d digest %s setup %.3fs measure %.3fs ops %d failed %d\n",
			r.Seed, r.Digest, r.SetupHostS, r.MeasureHostS, r.Ops(), r.Failed())
		for _, e := range r.ErrSamples {
			fmt.Fprintf(out, "  error: %s\n", e)
		}
	}
	for i, r := range ru.traced {
		same := i < len(ru.reps) && ru.reps[i].Digest == r.Digest
		fmt.Fprintf(out, "traced rep seed %d digest %s (matches untraced: %v)\n", r.Seed, r.Digest, same)
	}
	fmt.Fprintf(out, "digest %s %d %s\n", w.name, seed, runDigest(ru.reps))
	e2e, layer := ru.endToEnd(), ru.perLayer()
	for _, m := range append(append([]metric(nil), e2e...), layer...) {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	correct, attempted, failed := ru.judge()
	v := verdict{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	shown := e2e
	if trace {
		shown = layer
	}
	for _, m := range shown {
		v.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(out, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}
