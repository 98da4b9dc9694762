// Command perfbench is the ROS benchmark. It runs one named workload
// against the public ros API for a run of about --seconds host seconds, as
// several repetitions, each in its own child process so that a crash is
// recorded as a failed repetition with its seed and stack trace. It prints
// every metric by name and unit, per-repetition simulation digests, and as
// its last line one JSON object with the run's verdict and metrics.
//
// See README.md for the workloads, the metric map and replay commands.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// repSeconds is the host time one repetition of each workload takes on a
// 2-core x86-64 box, set-up and read-back included; it sets how many
// repetitions fit in --seconds.
var repSeconds = map[string]float64{"cold-read": 3, "ingest": 4.5, "fed-mixed": 6.5}

// childTimeout bounds one repetition; the whole run must end within 180 s.
const childTimeout = 150 * time.Second

// outDir holds crash reports and traced spans, inside the checkout.
const outDir = ".bench_build/perfbench-out"

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold-read, ingest or fed-mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "host seconds the run should measure")
		trace   = flag.Int("trace", 0, "1: add traced repetitions and print per-layer metrics")
		child   = flag.Bool("child", false, "run one repetition in this process (internal)")
		traced  = flag.Bool("traced", false, "with -child: trace the repetition")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(w, *seed, *traced))
	}
	os.Exit(parentMain(w, *seed, *seconds, *trace == 1))
}

// childMain runs one repetition and prints its RepResult as JSON.
func childMain(w *workload, seed int64, traced bool) int {
	res, spans, err := runRep(w, fullSize(), seed, traced, "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if traced {
		if err := writeSpans(filepath.Join(outDir, "spans"), res, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// repSeed derives repetition i's seed from the run seed.
func repSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func parentMain(w *workload, seed int64, seconds float64, trace bool) int {
	n := max(1, int(math.Round(seconds/repSeconds[w.name])))
	if trace {
		n = max(1, n/2) // each repetition runs twice, untraced and traced
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ru := &run{}
	for i := 0; i < n; i++ {
		s := repSeed(seed, i)
		for _, tr := range []bool{false, true} {
			if tr && !trace {
				continue
			}
			res, err := spawn(ctx, w, s, tr)
			if err != nil {
				ru.crashed++
				fmt.Fprintf(os.Stderr, "perfbench: %s repetition seed %d (run seed %d, traced=%v) FAILED: %v\n",
					w.name, s, seed, tr, err)
				continue
			}
			if tr {
				ru.traced = append(ru.traced, res)
			} else {
				ru.reps = append(ru.reps, res)
			}
		}
	}
	if len(ru.reps) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: every repetition of %s failed\n", w.name)
		return 1
	}
	return report(os.Stdout, w, seed, ru, trace)
}

// spawn runs one repetition in a child process. A crash (panic, deadlock
// report, timeout) is returned as an error, with the child's stack trace
// saved under outDir.
func spawn(ctx context.Context, w *workload, seed int64, traced bool) (*RepResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, fmt.Sprintf("-seed=%d", seed),
		fmt.Sprintf("-traced=%v", traced)}
	cmd := exec.CommandContext(cctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if runErr == nil {
		var res RepResult
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("bad child output: %w", err)
		}
		return &res, nil
	}
	if err := os.MkdirAll(filepath.Join(outDir, "crashes"), 0o755); err != nil {
		return nil, fmt.Errorf("%v (and saving the crash report: %v)", runErr, err)
	}
	file := filepath.Join(outDir, "crashes", fmt.Sprintf("%s-seed%d-traced%v.txt", w.name, seed, traced))
	report := fmt.Sprintf("workload %s seed %d traced %v\nreplay: %s %s\nerror: %v\n\n%s",
		w.name, seed, traced, exe, strings.Join(args, " "), runErr, stderr.String())
	if err := os.WriteFile(file, []byte(report), 0o644); err != nil {
		return nil, fmt.Errorf("%v (and saving the crash report: %v)", runErr, err)
	}
	return nil, fmt.Errorf("%v; %s; report in %s", runErr, firstPanicLine(stderr.String()), file)
}

// firstPanicLine picks the panic message and the first program frame out of
// a Go crash dump.
func firstPanicLine(s string) string {
	var msg, frame string
	for _, line := range strings.Split(s, "\n") {
		switch {
		case msg == "" && (strings.HasPrefix(line, "panic:") || strings.HasPrefix(line, "fatal error:") || strings.HasPrefix(line, "perfbench:")):
			msg = line
		case frame == "" && strings.Contains(line, "/internal/") && strings.Contains(line, ".go:"):
			frame = strings.TrimSpace(line)
		}
	}
	return strings.TrimSpace(msg + " at " + frame)
}
