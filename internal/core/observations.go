package core

import (
	"fmt"

	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/kernels"
	"tbd/internal/memprof"
	"tbd/internal/models"
	"tbd/internal/sim"
)

// Observation is one of the paper's thirteen measurement-driven findings,
// with an executable check against the simulated suite.
type Observation struct {
	ID    int
	Claim string
	Check func(Options) (bool, string)
}

// ObservationResult is the outcome of one check.
type ObservationResult struct {
	ID     int
	Claim  string
	Holds  bool
	Detail string
}

// CheckAll evaluates every observation.
func CheckAll(o Options) []ObservationResult {
	o = o.withDefaults()
	var out []ObservationResult
	for _, ob := range Observations() {
		holds, detail := ob.Check(o)
		out = append(out, ObservationResult{ID: ob.ID, Claim: ob.Claim, Holds: holds, Detail: detail})
	}
	return out
}

// sweep returns the simulated results over a model x framework batch
// sweep.
func sweep(o Options, modelName, fwName string) []sim.Result {
	m, err := models.Lookup(modelName)
	if err != nil {
		panic(err)
	}
	fw, err := framework.Lookup(fwName)
	if err != nil {
		panic(err)
	}
	var out []sim.Result
	for _, b := range m.BatchesFor(fwName) {
		out = append(out, simulate(m, fw, o.GPU, b))
	}
	return out
}

func atMax(o Options, modelName, fwName string) sim.Result {
	rs := sweep(o, modelName, fwName)
	return rs[len(rs)-1]
}

// Observations returns the paper's findings 1-13.
func Observations() []Observation {
	return []Observation{
		{1, "Performance increases with the mini-batch size for all models", func(o Options) (bool, string) {
			for _, m := range models.Suite() {
				for _, fwName := range m.Frameworks {
					rs := sweep(o, m.Name, fwName)
					for i := 1; i < len(rs); i++ {
						if rs[i].Throughput < rs[i-1].Throughput*0.999 {
							return false, fmt.Sprintf("%s/%s throughput dropped at batch %d", m.Name, fwName, rs[i].Batch)
						}
					}
				}
			}
			return true, "throughput non-decreasing in batch across the suite"
		}},
		{2, "RNN-based model performance is not saturated within GPU memory limits", func(o Options) (bool, string) {
			gain := func(name, fw string) float64 {
				rs := sweep(o, name, fw)
				return rs[len(rs)-1].Throughput / rs[len(rs)-2].Throughput
			}
			rnnGain := gain("Seq2Seq", "TensorFlow")
			ds2Gain := gain("Deep Speech 2", "MXNet")
			cnnGain := gain("ResNet-50", "TensorFlow")
			if rnnGain < 1.15 || ds2Gain < 1.1 {
				return false, fmt.Sprintf("RNN models saturated: seq2seq gain %.2f, DS2 gain %.2f", rnnGain, ds2Gain)
			}
			if cnnGain > rnnGain {
				return false, "CNN gained more than the RNN at the top of the sweep"
			}
			return true, fmt.Sprintf("last-doubling gains: NMT %.2fx, DS2 %.2fx vs ResNet %.2fx", rnnGain, ds2Gain, cnnGain)
		}},
		{3, "Framework rankings flip across applications (diversity matters)", func(o Options) (bool, string) {
			resMX := atMax(o, "ResNet-50", "MXNet").Throughput
			resTF := atMax(o, "ResNet-50", "TensorFlow").Throughput
			nmt := atMax(o, "Seq2Seq", "TensorFlow").Throughput
			sockeye := atMax(o, "Seq2Seq", "MXNet").Throughput
			if resMX <= resTF {
				return false, "MXNet should lead on ResNet-50"
			}
			if nmt <= sockeye {
				return false, "TensorFlow should lead on Seq2Seq"
			}
			return true, fmt.Sprintf("ResNet: MXNet %.0f > TF %.0f; Seq2Seq: NMT %.0f > Sockeye %.0f", resMX, resTF, nmt, sockeye)
		}},
		{4, "Mini-batch size should be large enough to keep the GPU busy", func(o Options) (bool, string) {
			rs := sweep(o, "ResNet-50", "TensorFlow")
			if rs[len(rs)-1].GPUUtil <= rs[0].GPUUtil {
				return false, "GPU utilization did not grow with batch"
			}
			if rs[len(rs)-1].GPUUtil < 0.9 {
				return false, fmt.Sprintf("large-batch CNN utilization only %.2f", rs[len(rs)-1].GPUUtil)
			}
			return true, fmt.Sprintf("ResNet GPU util %.2f -> %.2f over the sweep", rs[0].GPUUtil, rs[len(rs)-1].GPUUtil)
		}},
		{5, "GPU compute utilization is low for LSTM-based models", func(o Options) (bool, string) {
			lstm := atMax(o, "Seq2Seq", "MXNet").GPUUtil
			cnn := atMax(o, "ResNet-50", "MXNet").GPUUtil
			attn := atMax(o, "Transformer", "TensorFlow").GPUUtil
			if cnn/lstm < 1.3 {
				return false, fmt.Sprintf("CNN/LSTM utilization ratio %.2f too small", cnn/lstm)
			}
			if attn <= lstm {
				return false, "attention should out-utilize LSTM (same application)"
			}
			return true, fmt.Sprintf("GPU util: ResNet %.2f, Transformer %.2f, Sockeye %.2f", cnn, attn, lstm)
		}},
		{6, "Mini-batch size should be large enough to exploit FP32 throughput", func(o Options) (bool, string) {
			for _, cfg := range [][2]string{{"ResNet-50", "TensorFlow"}, {"Seq2Seq", "TensorFlow"}, {"Transformer", "TensorFlow"}} {
				rs := sweep(o, cfg[0], cfg[1])
				if rs[len(rs)-1].FP32Util <= rs[0].FP32Util {
					return false, cfg[0] + " FP32 utilization did not grow with batch"
				}
			}
			return true, "FP32 utilization grows with batch for CNN, LSTM, and attention models"
		}},
		{7, "RNN-based models have low GPU FP32 utilization", func(o Options) (bool, string) {
			nmt := atMax(o, "Seq2Seq", "TensorFlow").FP32Util
			ds2 := atMax(o, "Deep Speech 2", "MXNet").FP32Util
			cnn := atMax(o, "ResNet-50", "TensorFlow").FP32Util
			wgan := atMax(o, "WGAN", "TensorFlow").FP32Util
			if nmt >= cnn || ds2 >= cnn || nmt >= wgan {
				return false, fmt.Sprintf("RNN FP32 util not lower: nmt %.2f ds2 %.2f vs cnn %.2f", nmt, ds2, cnn)
			}
			return true, fmt.Sprintf("FP32 util: NMT %.2f, DS2 %.2f vs ResNet %.2f, WGAN %.2f", nmt, ds2, cnn, wgan)
		}},
		{8, "Even optimized models run long kernels at low FP32 utilization", func(o Options) (bool, string) {
			r := atMax(o, "ResNet-50", "TensorFlow")
			low := sim.LongLowUtilKernels(r, 5)
			if len(low) < 3 {
				return false, "fewer than 3 long low-utilization kernels"
			}
			var share float64
			hasBN := false
			for _, k := range low {
				share += k.DurationShare
				if k.Class == kernels.BatchNorm {
					hasBN = true
				}
			}
			if !hasBN {
				return false, "batch-norm kernels missing from the low-utilization set"
			}
			return true, fmt.Sprintf("top-5 low-util kernels cover %.0f%% of GPU time (bn included)", 100*share)
		}},
		{9, "CPU utilization is low in DNN training", func(o Options) (bool, string) {
			over15, over8 := 0, 0
			max := 0.0
			for _, cfg := range fig7Configs() {
				m, _ := models.Lookup(cfg[0])
				fw, _ := framework.Lookup(cfg[1])
				bs := m.BatchesFor(cfg[1])
				r := simulate(m, fw, o.GPU, bs[len(bs)-1])
				if r.CPUUtil > 0.15 {
					over15++
				}
				if r.CPUUtil > 0.08 {
					over8++
				}
				if r.CPUUtil > max {
					max = r.CPUUtil
				}
			}
			if over15 > 1 || over8 > 3 {
				return false, fmt.Sprintf("%d configs above 15%%, %d above 8%%", over15, over8)
			}
			return true, fmt.Sprintf("max CPU util %.1f%%; %d config(s) above 15%%", 100*max, over15)
		}},
		{10, "Faster GPUs need better software to realize their resources", func(o Options) (bool, string) {
			for _, cfg := range [][2]string{{"ResNet-50", "MXNet"}, {"Inception-v3", "TensorFlow"}} {
				m, _ := models.Lookup(cfg[0])
				fw, _ := framework.Lookup(cfg[1])
				p := simulate(m, fw, device.QuadroP4000, 32)
				x := simulate(m, fw, device.TitanXp, 32)
				if x.Throughput <= p.Throughput {
					return false, cfg[0] + ": Titan Xp did not improve throughput"
				}
				if x.FP32Util >= p.FP32Util || x.GPUUtil > p.GPUUtil {
					return false, cfg[0] + ": Titan Xp utilization should drop"
				}
			}
			return true, "Titan Xp raises throughput but lowers both utilizations"
		}},
		{11, "Feature maps dominate the training memory footprint", func(o Options) (bool, string) {
			minShare, maxShare := 1.0, 0.0
			for _, m := range models.Suite() {
				fw, _ := framework.Lookup(m.Frameworks[0])
				bs := m.BatchesFor(m.Frameworks[0])
				n := m.SamplesForBatch(bs[len(bs)-1])
				bd := memprof.ProfileOps(m.Ops(), n, fw.MemPolicy)
				share := bd.FeatureMapShare()
				if share < minShare {
					minShare = share
				}
				if share > maxShare {
					maxShare = share
				}
				if bd.FeatureMaps < bd.Weights || bd.FeatureMaps < bd.Workspace || bd.FeatureMaps < bd.Dynamic {
					return false, m.Name + ": feature maps are not the largest category"
				}
			}
			if minShare < 0.4 || maxShare > 0.95 {
				return false, fmt.Sprintf("feature-map share range [%.0f%%, %.0f%%] outside expectations", 100*minShare, 100*maxShare)
			}
			return true, fmt.Sprintf("feature maps take %.0f-%.0f%% of memory at max batch (paper: 62-89%%)", 100*minShare, 100*maxShare)
		}},
		{12, "Exhausting GPU memory with large mini-batches has limited benefit", func(o Options) (bool, string) {
			m, _ := models.Lookup("ResNet-50")
			fw, _ := framework.Lookup("MXNet")
			rHalf := simulate(m, fw, o.GPU, 32)
			rMax := simulate(m, fw, o.GPU, 64)
			memHalf := memprof.ProfileOps(m.Ops(), 32, fw.MemPolicy)
			memMax := memprof.ProfileOps(m.Ops(), 64, fw.MemPolicy)
			thrGain := rMax.Throughput / rHalf.Throughput
			memGain := float64(memMax.Total()) / float64(memHalf.Total())
			if thrGain > 1.10 {
				return false, fmt.Sprintf("halving batch costs %.0f%% throughput — not limited", 100*(thrGain-1))
			}
			if memGain < 1.5 {
				return false, "memory did not scale with batch"
			}
			return true, fmt.Sprintf("64 vs 32: +%.0f%% throughput for +%.0f%% memory", 100*(thrGain-1), 100*(memGain-1))
		}},
		{13, "Network bandwidth must be large enough for good scalability", func(o Options) (bool, string) {
			m, _ := models.Lookup("ResNet-50")
			fw, _ := framework.Lookup("MXNet")
			cfg := models.SimConfigFor(m, fw, o.GPU)
			results := map[string]sim.ScaleResult{}
			for _, c := range sim.Figure10Configs() {
				results[c.Name] = sim.Scale(m.Ops(), 16, kernels.StyleMXNet, cfg, c)
			}
			if results["2M1G (ethernet)"].Throughput >= results["1M1G"].Throughput {
				return false, "ethernet did not degrade two-machine training"
			}
			if results["2M1G (infiniband)"].ScalingEfficiency < 0.8 {
				return false, "infiniband scaling efficiency below 0.8"
			}
			if results["1M4G"].ScalingEfficiency < 0.7 {
				return false, "PCIe multi-GPU scaling efficiency below 0.7"
			}
			return true, fmt.Sprintf("eth 2M %.0f < 1G %.0f; IB efficiency %.0f%%; 4G efficiency %.0f%%",
				results["2M1G (ethernet)"].Throughput, results["1M1G"].Throughput,
				100*results["2M1G (infiniband)"].ScalingEfficiency, 100*results["1M4G"].ScalingEfficiency)
		}},
	}
}
