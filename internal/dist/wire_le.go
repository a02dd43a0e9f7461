//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package dist

import "unsafe"

// f32Bytes views vals' memory as bytes. An fp32 frame is little-endian
// float32s, which is how every GOARCH this file builds for lays out a
// []float32, so the view is the frame: fp32 hops are written from and read
// into tensor memory with no encode or decode pass. On a big-endian
// platform the package does not build.
func f32Bytes(vals []float32) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals))
}
