package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostSample is the host state read at one instant.
type hostSample struct {
	loadavg string
	cpu     []uint64 // the /proc/stat "cpu" line: user nice system idle iowait irq softirq steal ...
}

func sampleHost() hostSample {
	var h hostSample
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(b))
		if len(f) >= 3 {
			h.loadavg = strings.Join(f[:3], " ")
		}
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for _, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseUint(f, 10, 64)
			h.cpu = append(h.cpu, v)
		}
	}
	return h
}

// stealShare is the share of all CPU time between a and b that the
// hypervisor gave to other guests.
func stealShare(a, b hostSample) float64 {
	if len(a.cpu) < 8 || len(b.cpu) < 8 {
		return 0
	}
	var total uint64
	for i := range a.cpu {
		if i < len(b.cpu) && i < 8 { // guest time is already inside user
			total += b.cpu[i] - a.cpu[i]
		}
	}
	return ratio(b.cpu[7]-a.cpu[7], total)
}

// hostMeta identifies the code and the host state a result was measured
// with, so that a run on a drifting or stolen host can be recognized.
func hostMeta(before, after hostSample, cfg config, commit string) map[string]any {
	if commit == "" {
		commit = "unknown"
	}
	serverProcs := os.Getenv("GOMAXPROCS")
	if serverProcs == "" {
		serverProcs = strconv.Itoa(runtime.NumCPU()) + " (default)"
	}
	return map[string]any{
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"commit":               commit,
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs":    serverProcs,
		"gogc":                 envOr("GOGC", "100 (default)"),
		"go_version":           runtime.Version(),
		"cpu_model":            cpuModel(),
		"l3":                   readTrim("/sys/devices/system/cpu/cpu0/cache/index3/size"),
		"kernel":               readTrim("/proc/sys/kernel/osrelease"),
		"loadavg_start":        before.loadavg,
		"loadavg_end":          after.loadavg,
		"steal_share":          stealShare(before, after),
	}
}

func envOr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
