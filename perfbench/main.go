// Command perfbench is the repository benchmark. It drives real transfusiond
// processes, built from the same checkout, over loopback HTTP with
// closed-loop clients (every caller of the plan API waits for its plan before
// sending the next request), checks every answer, and prints the end-to-end
// metrics. With -trace 1 it runs the same workload again, then replays the
// workload's generated inputs in-process through each layer's public
// functions under a span recorder and prints the per-layer metrics instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 61, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the binaries first; see README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is everything a run is parameterised by. The seed is seen only by
// the input generators; the daemons receive the generated requests.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string
	workdir  string
	commit   string
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (1 is the default seed, 7919 the held-out seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics; 1 runs the traced per-layer replay")
	flag.StringVar(&cfg.daemon, "daemon", "", "transfusiond binary built from this checkout")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for daemon logs, stores and traces")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit under test, for the provenance line")
	flag.Parse()
	cfg.trace = trace == 1
	// The load generator allocates for every answer it checks; collecting
	// less often keeps its own GC pauses out of the latencies it times.
	debug.SetGCPercent(400)

	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return fmt.Errorf("-daemon: %w", err)
	}

	prov := provenance(cfg)
	line, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", line)

	runDir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	b := &bench{cfg: cfg, dir: runDir}
	defer b.stopDaemons()
	out, err := w(b)
	if err != nil {
		return err
	}
	b.stopDaemons()
	if cfg.trace {
		return b.reportLayers(out, prov)
	}
	return b.reportEndToEnd(out)
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// provenance identifies the host and the code a run measured. Timings from
// hosts with a different nproc or CPU model are not comparable.
func provenance(cfg config) map[string]interface{} {
	return map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     cfg.commit,
		"source":     sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (build
// output excluded), naming the code under test where no commit is known.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
