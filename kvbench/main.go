// Command kvbench is the replicated KV store's benchmark. It boots the
// stack the way cmd/kv does — one shard.Runtime per replica with adaptive
// batching, real transport links, a shared WAL at fsync=always and
// smr.NewBackendServer — and drives it closed-loop over two
// smr.SessionClient connections from this one process.
//
// A run repeats rounds until --seconds are spent. Each round boots a fresh
// cluster, preloads and warms it (set-up), times a fixed list of
// operations drawn from --seed, and checks the outputs: the whole history
// linearizable with a final GETL read-back, every replica holding the same
// store, lease hits on read-lease and no PUT faster than the quorum floor.
// The run reports the median over its rounds.
//
// With --trace 0 every round is untraced and the result carries the
// end-to-end metrics; with --trace 1 rounds alternate untraced and traced,
// and the result carries the per-layer metrics of the traced rounds plus
// the tracing overhead. The last line of standard output is the result:
//
//	{"correct": true, "attempted": 8000, "failed": 0, "metrics": {...}}
//
// Run it from the root of the source tree with kvbench/run.sh, which
// builds it first; see kvbench/README.md.
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
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: write-small, read-lease or geo-commit")
		seed    = flag.Int64("seed", 1, "seed the operations are drawn from")
		seconds = flag.Int("seconds", 20, "time budget for the run's rounds, set-up included")
		trace   = flag.Int("trace", 0, "1: per-layer run (alternate untraced and traced rounds); 0: end-to-end run")
		out     = flag.String("out", ".bench_build", "directory for data directories and trace files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "kvbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	dataRoot := filepath.Join(*out, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	h := host(dataRoot)
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)

	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dataRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	if res.spans != nil {
		dir := filepath.Join(*out, "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = res.spans.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvbench: writing spans:", err)
		} else {
			fmt.Fprintf(os.Stderr, "spans of the last traced round: %s\n", path)
		}
	}
	b, err := json.Marshal(res.output)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	output
	rounds    []round
	violation string
	spans     *tracer // the last traced round's
}

// runWorkload runs rounds of w until budget is spent (at least one round;
// two with tracing, one of each kind) and aggregates them.
func runWorkload(w workload, seed int64, budget time.Duration, trace bool, dataRoot string) (result, error) {
	root, err := os.MkdirTemp(dataRoot, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	p, err := makePlans(w, seed)
	if err != nil {
		return result{}, err
	}
	var res result
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		t0 := time.Now()
		r, err := runRound(w, p, root, traced)
		if err != nil {
			return result{}, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		res.rounds = append(res.rounds, r)
		if d := time.Since(t0); d > longest {
			longest = d
		}
		fmt.Fprintf(os.Stderr, "%s round %d%s: %.2fs, setup %.2fs, %d ops in %.2fs (%.0f ops/s), p50 %.2fms, p99 %.2fms%s\n",
			w.name, i, map[bool]string{true: " (traced)"}[traced], time.Since(t0).Seconds(), r.setup.Seconds(), len(r.lats), r.elapsed.Seconds(),
			r.opsPerSec(), ms(quantile(r.lats, 0.5)), ms(quantile(r.lats, 0.99)), violationNote(r.violation))
		if r.violation != "" && res.violation == "" {
			res.violation = r.violation
		}
		if traced {
			res.spans = r.spans
		}
		minRounds := 1
		if trace {
			minRounds = 2
		}
		if len(res.rounds) >= minRounds && time.Since(start)+longest > budget {
			break
		}
	}
	res.Correct = res.violation == ""
	for _, r := range res.rounds {
		res.Attempted += len(r.lats) + r.failed
		res.Failed += r.failed
	}
	if trace {
		res.Metrics = layerOutput(res.rounds)
	} else {
		res.Metrics = endToEnd(res.rounds)
		fmt.Fprintf(os.Stderr, "%s: %d rounds, latency percentiles over %d samples\n", w.name, len(res.rounds), res.Attempted-res.Failed)
	}
	return res, nil
}

func violationNote(v string) string {
	if v == "" {
		return ""
	}
	return ", CHECK FAILED: " + v
}

// endToEnd reports each end-to-end metric as its median over the rounds,
// except the latency percentiles, which pool every round's timed
// operations: a round's 1000-odd samples leave only ~10 beyond its p99,
// and the per-round p99 of a tail made of stalls swung ~30% between runs.
func endToEnd(rounds []round) map[string]metric {
	col := func(f func(r round) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return medianOf(xs)
	}
	var lats []time.Duration
	for _, r := range rounds {
		lats = append(lats, r.lats...)
	}
	ops := func(r round) float64 { return float64(len(r.lats)) }
	return map[string]metric{
		"ops_per_s":          {col(round.opsPerSec), "ops/s"},
		"op_p50_ms":          {ms(quantile(lats, 0.50)), "ms"},
		"op_p99_ms":          {ms(quantile(lats, 0.99)), "ms"},
		"cpu_us_per_op":      {col(round.cpuPerOp), "us/op"},
		"alloc_bytes_per_op": {col(func(r round) float64 { return float64(r.allocB) / ops(r) }), "B/op"},
		"allocs_per_op":      {col(func(r round) float64 { return float64(r.allocs) / ops(r) }), "allocs/op"},
		"live_heap_mb":       {col(func(r round) float64 { return float64(r.heap) / (1 << 20) }), "MB"},
		"setup_s":            {col(func(r round) float64 { return r.setup.Seconds() }), "s"},
	}
}

// layerUnits names every per-layer metric with its unit.
var layerUnits = map[string]string{
	"batch.cmds_per_round":           "cmds/round",
	"replica.msgs_in_per_op":         "msgs/op",
	"replica.handle_us_p50":          "us",
	"replica.handle_us_p99":          "us",
	"replica.handle_us_per_op":       "us/op",
	"codec.encode_us_per_op":         "us/op",
	"codec.decode_us_per_op":         "us/op",
	"transport.sends_per_op":         "msgs/op",
	"transport.bytes_per_op":         "B/op",
	"transport.send_us_per_op":       "us/op",
	"transport.drops_per_kop":        "drops/kop",
	"wal.fsyncs_per_op":              "fsyncs/op",
	"wal.bytes_per_op":               "B/op",
	"wal.fsync_us_p50":               "us",
	"snapshot.save_ms":               "ms",
	"replica.open_slots_end":         "slots",
	"replica.compact_floor_end":      "slot",
	"gc.cycles_per_kop":              "cycles/kop",
	"gc.pause_us_per_op":             "us/op",
	"lease.hit_ratio":                "ratio",
	"lease.read_us_p50":              "us",
	"lease.barrier_rounds_per_kread": "rounds/kread",
	"lease.refused_per_kop":          "refused/kop",
	"session.frames_per_op":          "frames/op",
	"session.busy_per_kop":           "busy/kop",
	"session.ping_us_p50":            "us",
	"quorum.floor_ms":                "ms",
	"geo.over_floor_ms":              "ms",
	"trace.untraced_ops_per_s":       "ops/s",
	"trace.traced_ops_per_s":         "ops/s",
	"trace.untraced_cpu_us_per_op":   "us/op",
	"trace.traced_cpu_us_per_op":     "us/op",
	"trace.overhead_pct":             "%",
}

// layerOutput reports each per-layer metric as its median over the traced
// rounds, beside the untraced and traced rounds' median throughput and CPU
// per operation. The tracing overhead is the rise in CPU per operation:
// throughput is set by round trips on every workload, so tracing shows in
// the processor time it adds, not in ops/s.
func layerOutput(rounds []round) map[string]metric {
	cols := map[string][]float64{}
	var plainOps, tracedOps, plainCPU, tracedCPU []float64
	for _, r := range rounds {
		if !r.traced {
			plainOps = append(plainOps, r.opsPerSec())
			plainCPU = append(plainCPU, r.cpuPerOp())
			continue
		}
		tracedOps = append(tracedOps, r.opsPerSec())
		tracedCPU = append(tracedCPU, r.cpuPerOp())
		for k, v := range r.layers {
			cols[k] = append(cols[k], v)
		}
	}
	out := map[string]metric{}
	for k, v := range cols {
		out[k] = metric{medianOf(v), layerUnits[k]}
	}
	uc, tc := medianOf(plainCPU), medianOf(tracedCPU)
	out["trace.untraced_ops_per_s"] = metric{medianOf(plainOps), "ops/s"}
	out["trace.traced_ops_per_s"] = metric{medianOf(tracedOps), "ops/s"}
	out["trace.untraced_cpu_us_per_op"] = metric{uc, "us/op"}
	out["trace.traced_cpu_us_per_op"] = metric{tc, "us/op"}
	out["trace.overhead_pct"] = metric{100 * (tc - uc) / uc, "%"}
	return out
}

// hostInfo is what the figures depend on besides the code.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	DataFS     string `json:"data_fs"`
}

func host(dataDir string) hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash("."),
		DataFS:     fsType(dataDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sourceHash digests every .go file and go.mod under root (skipping
// dot-directories such as the build output), so runs of a tree that is not
// a git checkout still name the code they measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
	sum := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s %d\n", f, len(b))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
