//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package prof

import "time"

// processCPU has no portable source here, so no span measures CPU.
func processCPU() time.Duration { return 0 }
