package tensor

import "math"

// IEEE 754 half-precision conversion, used by the distributed layer to
// compress gradient payloads in flight (the paper's §4.5 recommendation
// to "reduce the amount of data sent") and by the frozen weight matrices
// of gemm_half.go to hold inference weights at half the bytes.
// Training state stays FP32; only the storage format narrows.

// Float32ToHalf converts one float32 to its nearest float16 bit pattern
// (round-to-nearest-even, with overflow to ±Inf and graceful subnormals).
func Float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16((bits >> 16) & 0x8000)
	exp := int32((bits>>23)&0xff) - 127 + 15
	mant := bits & 0x7fffff

	switch {
	case (bits>>23)&0xff == 0xff: // Inf / NaN
		if mant != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	case exp >= 0x1f: // overflow -> Inf
		return sign | 0x7c00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign // underflow to zero
		}
		// Add the implicit leading 1, then shift into subnormal range.
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest even: up only when the round bit is set and
		// either a sticky bit survives below it or the kept LSB is odd.
		// (Round-half-up here would pull exact ties like 2^-25 away from
		// zero, off by one from the hardware F16C conversion.)
		round := mant >> (shift - 1) & 1
		sticky := mant & (1<<(shift-1) - 1)
		if round != 0 && (sticky != 0 || half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp<<10) | uint16(mant>>13)
		// Round to nearest even on the 13 dropped bits: up only when the
		// round bit (0x1000) is set and either a sticky bit survives below
		// it or the kept LSB is odd. The mantissa increment carries into
		// the exponent correctly, including 0x7bff -> 0x7c00 (Inf).
		if mant&0x1000 != 0 && (mant&0xfff != 0 || half&1 == 1) {
			half++
		}
		return half
	}
}

// HalfToFloat32 expands a float16 bit pattern to float32.
func HalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// EncodeHalf compresses a float32 slice to float16 bit patterns.
func EncodeHalf(src []float32) []uint16 {
	out := make([]uint16, len(src))
	for i, v := range src {
		out[i] = Float32ToHalf(v)
	}
	return out
}

// DecodeHalf expands float16 bit patterns back to float32.
func DecodeHalf(src []uint16) []float32 {
	out := make([]float32, len(src))
	for i, h := range src {
		out[i] = HalfToFloat32(h)
	}
	return out
}
