// Command e2e is the repository's end-to-end benchmark (BENCHMARK.json at
// the repository root declares it). One invocation runs one workload:
//
//	e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// generates every input from --seed, runs the workload's four engine
// legs with op counts frozen in this package (scaled by --seconds),
// checks the answers, prints every metric by name with its unit, and
// ends with one JSON line: the end-to-end metrics untraced, the
// per-layer metrics traced. Two more modes work on result files:
//
//	e2e --compare A.json[,A2.json...] B.json[,B2.json...]
//	e2e --bounds  seed_1.json,seed_2.json,...
//
// and --list prints the workload names for scripts.
//
// See benchmarks/README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (a name from BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", refSeconds, "run length the frozen op counts are scaled to")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		quick    = flag.Bool("quick", false, "smoke-test scale: small data, tiny op counts, meaningless numbers")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark declaration")
		outPath  = flag.String("out", "", "results file to add this run to (created if absent)")
		commit   = flag.String("commit", "", "commit id recorded in --out's machine tuple")
		compare  = flag.Bool("compare", false, "compare two sets of results files: --compare A[,A2...] B[,B2...]")
		bounds   = flag.Bool("bounds", false, "print the bound rule's value for each metric over a set of results files")
		list     = flag.Bool("list", false, "print the workload names, one a line")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	switch {
	case *list:
		for _, w := range sp.Workloads {
			fmt.Println(w.Name)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two arguments, each a comma-separated list of results files"))
		}
		worse, err := compareSets(os.Stdout, sp, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	case *bounds:
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("--bounds needs one comma-separated list of results files"))
		}
		if err := printBounds(os.Stdout, sp, strings.Split(flag.Arg(0), ",")); err != nil {
			fatal(err)
		}
		return
	}

	// Journals and scratch logs live under the build directory of the
	// checkout the benchmark runs in, and are removed on the way out.
	scratch := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick,
		scratch: scratch, traceDir: filepath.Join("benchmarks", "results"), out: os.Stdout,
	}
	res, err := execute(cfg, sp)
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		if err := addToResults(*outPath, cfg, *commit, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

// machine is the tuple archived with every results file: enough to judge
// whether two files are comparable.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// archivedRun is one run inside a results file.
type archivedRun struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
}

// resultsFile is what benchmarks/run.sh writes: one set of runs of one
// commit on one machine.
type resultsFile struct {
	Machine machine       `json:"machine"`
	Runs    []archivedRun `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// addToResults appends this run to the results file at path.
func addToResults(path string, cfg runConfig, commit string, res result) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Machine = machine{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit,
	}
	f.Runs = append(f.Runs, archivedRun{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Result: res})
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
