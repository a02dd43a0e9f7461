package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tbd/internal/tensor"
)

// Wire encoding for real-network gradient exchange: a hand-rolled
// little-endian binary format (stdlib only, no reflection on the hot
// path; fp32 payloads are the tensors' own bytes, see wire_le.go) plus
// the two compression levers of §4.5's "reduce the data sent"
// recommendation — fp16 payloads and int8 quantization with
// error-feedback residuals.

// Compression selects the gradient wire encoding.
type Compression int

// Gradient wire encodings.
const (
	// CompressNone ships raw float32 (4 B/elem).
	CompressNone Compression = iota
	// CompressFP16 ships IEEE half payloads (2 B/elem). Rounding error is
	// ~2^-11 relative — far below SGD noise — so no residual is kept.
	CompressFP16
	// CompressInt8 ships linearly quantized int8 (1 B/elem plus one
	// float32 scale per message). The quantization error is retained as a
	// per-slot residual and added into the next message (error feedback),
	// which keeps the long-run SGD trajectory close to full precision.
	CompressInt8
)

// String implements fmt.Stringer (flag values and benchmark labels).
func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "full"
	case CompressFP16:
		return "fp16"
	case CompressInt8:
		return "int8"
	}
	return fmt.Sprintf("Compression(%d)", int(c))
}

// ParseCompression maps a flag string to a Compression.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "full", "none", "fp32":
		return CompressNone, nil
	case "fp16", "half":
		return CompressFP16, nil
	case "int8":
		return CompressInt8, nil
	}
	return CompressNone, fmt.Errorf("dist: unknown compression %q (have full, fp16, int8)", s)
}

// WireBytesPerElem returns the payload bytes one gradient scalar costs
// under this encoding (excluding the constant per-message scale header).
func (c Compression) WireBytesPerElem() int {
	switch c {
	case CompressFP16:
		return 2
	case CompressInt8:
		return 1
	}
	return 4
}

// wireBuf holds the reusable scratch buffers one endpoint needs to frame
// and unframe payloads. Not safe for concurrent use; the ring keeps one
// per direction, a parameter-server connection one per end.
type wireBuf struct {
	bytes []byte
	f32   []float32 // readF32Add's landing buffer
}

func (b *wireBuf) grow(n int) []byte {
	if cap(b.bytes) < n {
		b.bytes = make([]byte, n)
	}
	b.bytes = b.bytes[:n]
	return b.bytes
}

// writeF32 frames vals as little-endian float32s: their own bytes.
func (b *wireBuf) writeF32(w io.Writer, vals []float32) error {
	_, err := w.Write(f32Bytes(vals))
	return err
}

// readF32 fills dst from little-endian float32s, reading straight into it.
func (b *wireBuf) readF32(r io.Reader, dst []float32) error {
	_, err := io.ReadFull(r, f32Bytes(dst))
	return err
}

// readF32Add reads little-endian float32s and ADDS them into dst (the
// ring's reduce step). The add is unrolled by four, as in scaleF32: the
// one-element loop ran 40–80 % slower when a change elsewhere in the
// package moved it 32 bytes off a 64-byte line.
func (b *wireBuf) readF32Add(r io.Reader, dst []float32) error {
	if cap(b.f32) < len(dst) {
		b.f32 = make([]float32, len(dst))
	}
	src := b.f32[:len(dst)]
	if _, err := io.ReadFull(r, f32Bytes(src)); err != nil {
		return err
	}
	dst = dst[:len(src)]
	for ; len(src) >= 4; src, dst = src[4:], dst[4:] {
		s, d := src[:4:4], dst[:4:4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// writeF16 frames vals as IEEE half payloads.
func (b *wireBuf) writeF16(w io.Writer, vals []float32) error {
	buf := b.grow(2 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint16(buf[2*i:], tensor.Float32ToHalf(v))
	}
	_, err := w.Write(buf)
	return err
}

// readF16Add reads half payloads and ADDS them into dst (the ring's
// reduce step); readF16 overwrites (the parameter server's push decode).
func (b *wireBuf) readF16Add(r io.Reader, dst []float32) error {
	buf := b.grow(2 * len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] += tensor.HalfToFloat32(binary.LittleEndian.Uint16(buf[2*i:]))
	}
	return nil
}

func (b *wireBuf) readF16(r io.Reader, dst []float32) error {
	buf := b.grow(2 * len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = tensor.HalfToFloat32(binary.LittleEndian.Uint16(buf[2*i:]))
	}
	return nil
}

// writeInt8 frames a pre-quantized message: float32 scale then the int8
// payload bytes.
func (b *wireBuf) writeInt8(w io.Writer, scale float32, q []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], math.Float32bits(scale))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(q)
	return err
}

// readLevelsAdd reads len(dst) int8 levels of a message whose scale was
// read before them and ADDS their values into dst (the ring's reduce step,
// which takes one message in pieces).
func (b *wireBuf) readLevelsAdd(r io.Reader, scale float32, dst []float32) error {
	buf := b.grow(len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] += DequantInt8(scale, buf[i])
	}
	return nil
}

// readScale reads the float32 scale an int8 message starts with.
func (b *wireBuf) readScale(r io.Reader) (float32, error) {
	buf := b.grow(4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(buf)), nil
}

// readLevels reads len(dst) int8 levels of a message whose scale was read
// before them and overwrites dst with their values (the parameter server's
// push decode, which may take one message in several pieces).
func (b *wireBuf) readLevels(r io.Reader, scale float32, dst []float32) error {
	buf := b.grow(len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	DequantInt8Slice(scale, buf, dst)
	return nil
}

// Int8Quantizer linearly quantizes gradient messages to int8 with a
// per-message max-abs scale and keeps the rounding error as a residual
// that is added into the next message covering the same slots (error
// feedback, a la 1-bit SGD / EF-SGD). Residual state is indexed by the
// slot's offset in the flat gradient stream, so one quantizer serves
// both the ring (chunk offsets) and the parameter-server client (tensor
// offsets), as long as each slot is quantized at most once per round.
type Int8Quantizer struct {
	residual []float32
}

// NewInt8Quantizer creates a quantizer for a flat gradient stream of n
// scalars.
func NewInt8Quantizer(n int) *Int8Quantizer {
	return &Int8Quantizer{residual: make([]float32, n)}
}

// QuantizeAt quantizes vals — which occupy [off, off+len(vals)) of the
// flat stream — into out (int8 stored as bytes) and returns the scale.
// The residual for those slots is folded in first and updated after.
//
// The scale is the max absolute value after residual correction, and a
// quantized level q decodes as scale*(q/127); the extremes ±scale and
// exact zeros therefore round-trip exactly.
func (z *Int8Quantizer) QuantizeAt(off int, vals []float32, out []byte) float32 {
	if len(out) != len(vals) {
		panic(fmt.Sprintf("dist: int8 output %d for %d values", len(out), len(vals)))
	}
	if off < 0 || off+len(vals) > len(z.residual) {
		panic(fmt.Sprintf("dist: quantize range [%d,%d) outside residual of %d", off, off+len(vals), len(z.residual)))
	}
	res := z.residual[off : off+len(vals)]
	var maxAbs float32
	for i, v := range vals {
		c := v + res[i]
		if c > maxAbs {
			maxAbs = c
		} else if -c > maxAbs {
			maxAbs = -c
		}
	}
	if maxAbs == 0 {
		for i := range out {
			out[i] = 0
			res[i] = 0
		}
		return 0
	}
	inv := 127 / maxAbs
	for i, v := range vals {
		c := v + res[i]
		q := int32(math.Round(float64(c * inv)))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		out[i] = byte(int8(q))
		res[i] = c - DequantInt8(maxAbs, byte(int8(q)))
	}
	return maxAbs
}

// DequantInt8 decodes one quantized level (int8 bit pattern in a byte)
// under the message's scale.
func DequantInt8(scale float32, q byte) float32 {
	return scale * (float32(int8(q)) / 127)
}

// DequantInt8Slice decodes a whole message into dst (overwriting).
func DequantInt8Slice(scale float32, q []byte, dst []float32) {
	if len(dst) != len(q) {
		panic(fmt.Sprintf("dist: dequant %d levels into %d slots", len(q), len(dst)))
	}
	for i, b := range q {
		dst[i] = DequantInt8(scale, b)
	}
}
