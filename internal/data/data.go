// Package data provides the training datasets of the paper's Table 3.
// The real corpora (ImageNet, IWSLT15, Pascal VOC, LibriSpeech, Atari
// ROMs) are not redistributable, so each is replaced by a synthetic
// generator that matches the published shape, cardinality, and length
// distribution — the properties throughput and memory metrics depend on —
// and embeds a recoverable structure so the numeric model twins can
// actually converge on it (Figure 2).
package data

// Dataset describes one corpus from Table 3.
type Dataset struct {
	Name       string
	NumSamples int
	// SampleShape is the per-sample tensor shape (images, frames).
	SampleShape []int
	// MeanSeqLen / MaxSeqLen describe variable-length corpora (tokens for
	// text, feature frames for audio).
	MeanSeqLen, MaxSeqLen int
	VocabSize             int
	// MeanDurationSec is the mean clip length for audio corpora, used by
	// the paper's duration-based throughput metric for Deep Speech 2.
	MeanDurationSec float64
	// DecodeCPUSecPerSample is the host input-pipeline cost (decode,
	// augment) per sample.
	DecodeCPUSecPerSample float64
	Special               string
}

// Built-in datasets with the paper's Table 3 properties.
var (
	ImageNet1K = &Dataset{
		Name: "ImageNet1K", NumSamples: 1_200_000,
		SampleShape: []int{3, 256, 256}, VocabSize: 1000,
		DecodeCPUSecPerSample: 8e-3,
	}
	IWSLT15 = &Dataset{
		Name: "IWSLT15", NumSamples: 133_000,
		MeanSeqLen: 25, MaxSeqLen: 30, VocabSize: 17188,
		DecodeCPUSecPerSample: 1e-4,
		Special:               "vocabulary size of 17188",
	}
	PascalVOC2007 = &Dataset{
		Name: "Pascal VOC 2007", NumSamples: 5011,
		SampleShape: []int{3, 500, 350}, VocabSize: 20,
		DecodeCPUSecPerSample: 2.5e-2,
		Special:               "12608 annotated objects",
	}
	LibriSpeech = &Dataset{
		Name: "LibriSpeech", NumSamples: 280_000,
		MeanSeqLen: 300, MaxSeqLen: 600, VocabSize: 29,
		MeanDurationSec:       12.8,
		DecodeCPUSecPerSample: 5e-3,
		Special:               "1000 hours (100-hour subset used for training)",
	}
	DownsampledImageNet = &Dataset{
		Name: "Downsampled ImageNet", NumSamples: 1_200_000,
		SampleShape: []int{3, 64, 64}, VocabSize: 1000,
		DecodeCPUSecPerSample: 1e-3,
	}
	Atari2600 = &Dataset{
		Name: "Atari 2600", NumSamples: 0, // generated online by the emulator
		SampleShape: []int{4, 84, 84},
		// A3C's host cost is environment stepping, not decoding; it is
		// the highest CPU consumer in Figure 7.
		DecodeCPUSecPerSample: 2.0e-2,
		Special:               "frames generated online",
	}
)

// All lists the built-in datasets in Table 3 order.
func All() []*Dataset {
	return []*Dataset{ImageNet1K, IWSLT15, PascalVOC2007, LibriSpeech, DownsampledImageNet, Atari2600}
}

// SampleElems returns the per-sample element count for fixed-shape
// datasets, or MeanSeqLen for sequence corpora.
func (d *Dataset) SampleElems() int {
	if len(d.SampleShape) > 0 {
		n := 1
		for _, v := range d.SampleShape {
			n *= v
		}
		return n
	}
	return d.MeanSeqLen
}
