package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine a result was measured on; results from
// different hosts are not comparable.
type host struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	Kernel     string
	Go         string
	FS         string // filesystem type of the benchmark's output directory
}

func (h host) String() string {
	return fmt.Sprintf("host cpu=%q numcpu=%d gomaxprocs=%d kernel=%s go=%s fs=%s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Kernel, h.Go, h.FS)
}

func fingerprint(outDir string) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
		Go:         runtime.Version(),
		FS:         fsType(outDir),
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

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsMagic names the statfs magic numbers of filesystems a checkout is
// likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x858458F6: "ramfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// stolenSeconds is the CPU time the hypervisor has taken from this
// virtual machine since boot, summed over its CPUs: the "steal" column of
// /proc/stat, in USER_HZ (100 per second) ticks. It is 0 where the kernel
// does not account steal.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// meter times an interval and the share of the machine's CPU time the
// hypervisor stole during it.
type meter struct {
	t0     time.Time
	stolen float64
}

func startMeter() meter { return meter{t0: time.Now(), stolen: stolenSeconds()} }

// stop returns the interval's wall time in seconds and its steal share.
func (m meter) stop() (wall, steal float64) {
	wall = time.Since(m.t0).Seconds()
	return wall, ratio(stolenSeconds()-m.stolen, wall*float64(runtime.NumCPU()))
}

// resetPeakRSS hands the heap the garbage collector has freed back to
// the kernel and resets the process's peak resident set to its current
// one, so that the next peakRSSMB covers only what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last
// resetPeakRSS: VmHWM in /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
