package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The client and the server each get their own vCPU: of the CPUs this
// process may run on, the benchmark's threads keep all but the highest,
// and the server, forked from a thread pinned to the highest, inherits
// that single CPU. Pinning keeps the kernel from moving the two ends of
// the closed loop onto one CPU and back, which otherwise switches the
// round trip between two latency regimes for seconds at a time. With
// fewer than two CPUs nothing is pinned.

// cpuMask is a sched_setaffinity mask for CPUs 0..63.
type cpuMask uint64

// clientCPUs and serverCPU split the CPUs the process started with;
// pinClient sets them, and both stay zero when nothing is pinned.
var clientCPUs, serverCPU cpuMask

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinClient splits the CPUs this process may run on and moves every
// thread of the process onto the client's share; threads created later
// inherit the mask from their creator. Call it once, before any server
// starts.
func pinClient() {
	var all cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all)))
	if errno != 0 || bits.OnesCount64(uint64(all)) < 2 {
		return // more than 64 CPUs or fewer than 2: leave scheduling alone
	}
	serverCPU = 1 << (63 - bits.LeadingZeros64(uint64(all)))
	clientCPUs = all &^ serverCPU
	runtime.GOMAXPROCS(bits.OnesCount64(uint64(clientCPUs)))
	repin()
}

// repin moves every thread of this process onto the client CPUs.
func repin() {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = setAffinity(tid, clientCPUs) // best effort: a thread may have exited
		}
	}
}

// startPinned runs start (which forks the server) on a thread pinned to
// the server CPU, so the child inherits it, then returns this process's
// threads (including any the runtime created from the pinned one
// meanwhile) to the client CPUs.
func startPinned(start func() error) error {
	if serverCPU == 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(syscall.Gettid(), serverCPU); err != nil {
		return start()
	}
	err := start()
	repin()
	return err
}
