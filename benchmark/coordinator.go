package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mcbnet/internal/mcb"
)

// childTimeout bounds one child process; a run stays well inside the
// 180-second limit of one benchmark invocation.
const childTimeout = 150 * time.Second

// runRecord is one benchmark run of one workload, with its provenance. The
// -out file holds one per line; -compare reads two such files.
type runRecord struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Scale        float64        `json:"scale"`
	Trace        bool           `json:"trace"`
	Commit       string         `json:"commit"`
	Env          mcb.BenchEnv   `json:"env"`
	Correct      bool           `json:"correct"`
	Valid        bool           `json:"valid"`
	Invalid      []string       `json:"invalid,omitempty"`
	Counts       counts         `json:"counts"`
	Samples      map[string]int `json:"samples"`
	SetupSamples []float64      `json:"setup_samples,omitempty"`
	Metrics      metricSet      `json:"metrics"`
}

// measure runs one workload. Untraced, it sets the system up in w.setups
// fresh processes, the last of which then measures: core's schedule cache
// and the heap live as long as a process, so a second set-up in one process
// would be warm. Traced, it runs an untraced and a traced child for half
// the time each, plus the schedule-build timing in a fresh process, and
// reports the per-layer metrics and the tracing overhead.
func measure(ctx context.Context, w workload, seed uint64, seconds, scale float64, traced bool) (*runRecord, error) {
	rec := &runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Scale: scale, Trace: traced,
		Commit: gitCommit(), Env: mcb.CurrentBenchEnv(),
		Samples: map[string]int{}, Metrics: metricSet{},
	}
	base := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-scale", fmtFloat(scale)}
	runChild := func(role string, secs float64, tr bool) (*childResult, error) {
		args := append([]string{"-child", role, "-seconds", fmtFloat(secs), "-trace", boolArg(tr)}, base...)
		res, err := spawn(ctx, args...)
		if err != nil {
			return nil, err
		}
		rec.Counts.add(res.Counts)
		rec.Invalid = append(rec.Invalid, res.Invalid...)
		return res, nil
	}

	if !traced {
		for i := 0; i < w.setups-1; i++ {
			res, err := runChild("setup", seconds, false)
			if err != nil {
				return nil, err
			}
			rec.SetupSamples = append(rec.SetupSamples, res.SetupS)
		}
		res, err := runChild("run", seconds, false)
		if err != nil {
			return nil, err
		}
		rec.SetupSamples = append(rec.SetupSamples, res.SetupS)
		for k, v := range res.Metrics {
			rec.Metrics[k] = v
		}
		rec.Metrics.set("setup_s", median(rec.SetupSamples))
		rec.Samples = res.Samples
		rec.Samples["setup"] = len(rec.SetupSamples)
	} else {
		plain, err := runChild("run", seconds/2, false)
		if err != nil {
			return nil, err
		}
		plain.Metrics.set("setup_s", plain.SetupS)
		tr, err := runChild("run", seconds/2, true)
		if err != nil {
			return nil, err
		}
		tr.Metrics.set("setup_s", tr.SetupS)
		for _, n := range layerNames() {
			if v, ok := tr.Metrics[n]; ok {
				rec.Metrics[n] = v
			}
		}
		if tr.Cols > 0 {
			sched, err := spawn(ctx, "-child", "schedule", "-cols", strconv.Itoa(tr.Cols), "-col-len", strconv.Itoa(tr.ColLen))
			if err != nil {
				return nil, err
			}
			rec.Metrics["schedule.build_s"] = sched.Metrics["schedule.build_s"]
		}
		for _, m := range e2eMetrics {
			if u := plain.Metrics[m.Name].Value; u != 0 {
				rec.Metrics.set("overhead."+m.Name, tr.Metrics[m.Name].Value/u-1)
			}
		}
		rec.Metrics.fill(layerNames())
		for k, v := range tr.Samples {
			rec.Samples[k] = v
		}
	}
	rec.Correct = rec.Counts.Incorrect == 0
	rec.Valid = len(rec.Invalid) == 0
	if !traced {
		rec.Metrics.fill(e2eNames())
	}
	return rec, nil
}

// spawn runs this executable as a child process and decodes its last output
// line. The child's standard error passes through.
func spawn(ctx context.Context, args ...string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child %s: decode result: %w", strings.Join(args, " "), err)
	}
	if res.Metrics == nil {
		res.Metrics = metricSet{}
	}
	return &res, nil
}

// printRecord writes a run's metrics and accounting for a reader.
func printRecord(rec *runRecord) {
	p := func(format string, args ...any) { fmt.Printf(format, args...) }
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	p("== %s (%s, seed %d, %gs, commit %s, %s gomaxprocs=%d cpus=%d)\n",
		rec.Workload, mode, rec.Seed, rec.Seconds, rec.Commit, rec.Env.GoVersion, rec.Env.GOMAXPROCS, rec.Env.NumCPU)
	rec.Metrics.print(p, "   ")
	p("   %s\n", rec.Counts)
	p("   samples %v\n", rec.Samples)
	if !rec.Correct {
		p("   INCORRECT: %d answers failed the oracle\n", rec.Counts.Incorrect)
	}
	for _, r := range rec.Invalid {
		p("   invalid: %s\n", r)
	}
}

// appendRecord adds one JSON line to path.
func appendRecord(path string, rec *runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads a JSON-lines file of run records.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// gitCommit names the checked-out commit, "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+dirty"
	}
	return commit
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
