package bench

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// RuntimeDelta is the Go runtime's work during one operation.
type RuntimeDelta struct {
	Allocs     uint64  // heap allocations, tiny ones included
	AllocBytes uint64  // bytes allocated
	GCs        uint64  // completed GC cycles
	GCCPU      float64 // runtime-estimated GC CPU seconds
	TotalCPU   float64 // runtime-estimated available CPU seconds (GOMAXPROCS × wall)
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() RuntimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return RuntimeDelta{Allocs: u(0) + u(1), AllocBytes: u(2), GCs: u(3), GCCPU: f(4), TotalCPU: f(5)}
}

func (a RuntimeDelta) sub(b RuntimeDelta) RuntimeDelta {
	return RuntimeDelta{a.Allocs - b.Allocs, a.AllocBytes - b.AllocBytes, a.GCs - b.GCs,
		a.GCCPU - b.GCCPU, a.TotalCPU - b.TotalCPU}
}

// meter takes the host-time, CPU-time and runtime readings around one
// operation.
type meter struct {
	t0  time.Time
	cpu time.Duration
	rt  RuntimeDelta
}

func startMeter() meter {
	return meter{t0: time.Now(), cpu: processCPU(), rt: readRuntime()}
}

func (m meter) stop(op *Op) {
	op.Wall = time.Since(m.t0)
	op.CPU = processCPU() - m.cpu
	op.Runtime = readRuntime().sub(m.rt)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// MaxRSSMiB is the process's peak resident set size (VmHWM) in MiB.
func MaxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// Host describes the machine and build a result was measured on, so
// results from different hosts are never compared blindly.
type Host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	OSArch      string `json:"os_arch"`
	GitDescribe string `json:"git_describe"`
}

// HostInfo collects the metadata for the repository at root.
func HostInfo(root string) Host {
	return Host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		OSArch:      runtime.GOOS + "/" + runtime.GOARCH,
		GitDescribe: gitDescribe(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitDescribe names the commit at root, or "unknown" outside a git
// checkout. The ceiling keeps git from adopting a repository that merely
// encloses root.
func gitDescribe(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Dir = abs
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
