package serve

import (
	"runtime"
	"sync"

	"tbd/internal/tensor"
)

// CPU budget guard: every replica runner puts batched forwards on the
// shared tensor worker pool, so k runners at parallelism p can put k*p
// runnable worker goroutines on the scheduler. Oversubscribing
// GOMAXPROCS that way doesn't crash, but it trades throughput for
// context-switching and wrecks tail latency — exactly what a serving
// process must not do. The guard divides the machine between active
// runners, across every open Fleet: while k are running, the worker-pool
// parallelism is clamped to min(userSetting, max(1, GOMAXPROCS/k)), and
// the user's setting is restored when the last one exits.
var cpuBudget struct {
	mu     sync.Mutex
	active int
	// saved is the tensor parallelism observed when the first runner
	// started; user calls to SetParallelism while runners are live are
	// overridden at the next start/exit and otherwise ignored.
	saved int
}

func acquireCPUBudget() {
	cpuBudget.mu.Lock()
	defer cpuBudget.mu.Unlock()
	if cpuBudget.active == 0 {
		cpuBudget.saved = tensor.Parallelism()
	}
	cpuBudget.active++
	applyCPUBudgetLocked()
}

func releaseCPUBudget() {
	cpuBudget.mu.Lock()
	defer cpuBudget.mu.Unlock()
	cpuBudget.active--
	if cpuBudget.active <= 0 {
		cpuBudget.active = 0
		tensor.SetParallelism(cpuBudget.saved)
		return
	}
	applyCPUBudgetLocked()
}

func applyCPUBudgetLocked() {
	per := runtime.GOMAXPROCS(0) / cpuBudget.active
	if per < 1 {
		per = 1
	}
	if per > cpuBudget.saved {
		per = cpuBudget.saved
	}
	tensor.SetParallelism(per)
}
