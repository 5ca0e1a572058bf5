package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// peakRSSMB returns the process's peak resident set (VmHWM) in MB; this
// process hosts every rank, so it is the whole system's peak.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuTicks returns the machine's total and steal CPU ticks from
// /proc/stat. On a virtual machine, steal is time the host ran someone
// else on our virtual CPUs; a run with a large steal share measured a
// slower machine than its neighbours.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
