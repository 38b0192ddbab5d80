package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eris/internal/metrics"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes returns zeros when /proc/stat is unreadable (not Linux): the
// steal guard then sees 0 and never reruns.
func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var ct cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		ct.total += v
		if i == 7 {
			ct.steal = v
		}
	}
	return ct
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(before, after cpuTimes) float64 {
	if after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// fsKind names the filesystem holding path, so a reader of the durable
// workload's latencies knows what an fsync cost.
func fsKind(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// sample is everything the coordinator reads at a phase boundary.
type sample struct {
	engine metrics.Snapshot
	client metrics.Snapshot
	mem    runtime.MemStats
	cpu    time.Duration // process user+system time
	host   cpuTimes
}

func takeSample(in *instance) sample {
	s := sample{engine: in.db.MetricsSnapshot(), client: in.clientReg.Snapshot(), host: readCPUTimes()}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}
