package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// env is the environment block every report starts with.
type env struct {
	NProc, GOMAXPROCS int
	GoVersion, CPU    string
	L2, L3            string
}

func captureEnv() env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
	}
}

func (e env) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q l2=%s l3=%s",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPU, e.L2, e.L3)
}

// cpuModel reads the first model name in /proc/cpuinfo.
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

// cacheSize reads the size of cpu0's unified or data cache at level from
// sysfs.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		if readTrim(filepath.Join(d, "level")) == fmt.Sprint(level) &&
			readTrim(filepath.Join(d, "type")) != "Instruction" {
			return readTrim(filepath.Join(d, "size"))
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status, or 0 where that is unavailable.
func peakRSSMB() float64 {
	for _, line := range strings.Split(readTrim("/proc/self/status"), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
