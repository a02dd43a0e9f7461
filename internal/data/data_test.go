package data

import (
	"testing"

	"tbd/internal/tensor"
)

func TestTable3Registry(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("want 6 datasets, got %d", len(All()))
	}
	// Spot-check Table 3 values.
	if ImageNet1K.NumSamples != 1_200_000 || ImageNet1K.SampleShape[1] != 256 {
		t.Fatal("ImageNet1K properties wrong")
	}
	if IWSLT15.VocabSize != 17188 || IWSLT15.MeanSeqLen < 20 || IWSLT15.MaxSeqLen > 30 {
		t.Fatal("IWSLT15 properties wrong")
	}
	if PascalVOC2007.NumSamples != 5011 {
		t.Fatal("Pascal VOC sample count wrong")
	}
	if DownsampledImageNet.SampleShape[1] != 64 {
		t.Fatal("Downsampled ImageNet shape wrong")
	}
	if Atari2600.SampleShape[0] != 4 || Atari2600.SampleShape[1] != 84 {
		t.Fatal("Atari frame-stack shape wrong")
	}
}

func TestSampleElems(t *testing.T) {
	if ImageNet1K.SampleElems() != 3*256*256 {
		t.Fatal("image elems wrong")
	}
	if IWSLT15.SampleElems() != 25 {
		t.Fatal("sequence elems should be the mean length")
	}
}

func TestImageSourceIsLearnable(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := NewImageSource(rng, 1, 4, 4, 3, 0.1)
	b := src.Batch(64)
	if b.X.Dim(0) != 64 || b.X.Dim(2) != 4 {
		t.Fatalf("batch shape %v", b.X.Shape())
	}
	// Nearest-template classification must be nearly perfect at low
	// noise — the structure models learn from.
	correct := 0
	per := 16
	for i, label := range b.Labels {
		img := b.X.Data()[i*per : (i+1)*per]
		best, bi := float32(-1e30), -1
		for c := 0; c < 3; c++ {
			tpl := src.templates[c].Data()
			var dot float32
			for j := range img {
				dot += img[j] * tpl[j]
			}
			if dot > best {
				best, bi = dot, c
			}
		}
		if bi == label {
			correct++
		}
	}
	if correct < 58 {
		t.Fatalf("template recovery %d/64, want >= 58", correct)
	}
}

func TestImageSourceLabelsCoverClasses(t *testing.T) {
	rng := tensor.NewRNG(2)
	src := NewImageSource(rng, 3, 8, 8, 10, 0.3)
	b := src.Batch(500)
	seen := map[int]bool{}
	for _, l := range b.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d classes sampled", len(seen))
	}
}

func TestTranslationSourceDeterministicMapping(t *testing.T) {
	rng := tensor.NewRNG(3)
	src := NewTranslationSource(rng, 50, 10)
	b := src.Batch(8)
	if b.Src.Dim(0) != 8 || b.Src.Dim(1) != 10 {
		t.Fatalf("src shape %v", b.Src.Shape())
	}
	for i := 0; i < 8; i++ {
		for p := 0; p < 10; p++ {
			tok := int(b.Src.At(i, p))
			want := (tok*src.Mult + p) % 50
			if b.Targets[i*10+p] != want {
				t.Fatalf("target mismatch at (%d,%d)", i, p)
			}
		}
	}
}

func TestAudioSourceFramesEncodeSymbols(t *testing.T) {
	rng := tensor.NewRNG(4)
	src := NewAudioSource(rng, 16, 8, 20, 0.2)
	b := src.Batch(4)
	if b.X.Dim(1) != 20 || b.X.Dim(2) != 16 {
		t.Fatalf("audio shape %v", b.X.Shape())
	}
	if len(b.DurationsSec) != 4 || b.DurationsSec[0] <= 0 {
		t.Fatal("durations missing")
	}
	// The labeled bin must be the argmax for most frames.
	hits := 0
	for i := 0; i < 4; i++ {
		for fr := 0; fr < 20; fr++ {
			best, bi := float32(-1e30), -1
			for f := 0; f < 16; f++ {
				if v := b.X.At(i, fr, f); v > best {
					best, bi = v, f
				}
			}
			if bi == b.Labels[i*20+fr] {
				hits++
			}
		}
	}
	if hits < 70 {
		t.Fatalf("symbol recovery %d/80", hits)
	}
}
