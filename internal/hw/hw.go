// Package hw defines the simulated hardware device models the Cider
// reproduction runs on: CPU, memory, storage, GPU, and display, plus the
// toolchain model capturing compiler code-quality differences.
//
// The paper evaluates on two devices — a Google Nexus 7 (1.3 GHz quad-core
// Tegra 3, 1 GB RAM, 16 GB flash, 1280x800) running Android 4.2, and an
// iPad mini (1 GHz dual-core A5, 512 MB RAM, 16 GB flash, 1024x768) running
// iOS 6.1.2. Profiles for both are provided. All costs are expressed either
// as CPU cycles (converted via the core frequency) or as explicit durations,
// so the microbenchmark and application figures are deterministic functions
// of these tables.
package hw

import "time"

// CPUOp enumerates the basic operation classes whose costs the lmbench
// "basic CPU operations" group measures.
type CPUOp int

const (
	// OpIntAdd is an integer addition.
	OpIntAdd CPUOp = iota
	// OpIntMul is an integer multiplication.
	OpIntMul
	// OpIntDiv is an integer division.
	OpIntDiv
	// OpFloatAdd is a double-precision floating point addition.
	OpFloatAdd
	// OpFloatMul is a double-precision floating point multiplication.
	OpFloatMul
	// OpFloatDiv is a double-precision floating point division.
	OpFloatDiv
	// OpBranch is a taken branch.
	OpBranch
	// OpLoad is a cache-hit memory load.
	OpLoad
	// OpStore is a cache-hit memory store.
	OpStore
	numCPUOps
)

var cpuOpNames = [...]string{
	"int-add", "int-mul", "int-div",
	"float-add", "float-mul", "float-div",
	"branch", "load", "store",
}

func (op CPUOp) String() string {
	if int(op) < len(cpuOpNames) {
		return cpuOpNames[op]
	}
	return "op(?)"
}

// CPUModel describes a device CPU: core count, clock, and per-operation
// cycle counts.
type CPUModel struct {
	// Name identifies the part (e.g. "NVIDIA Tegra 3").
	Name string
	// Cores is the number of cores.
	Cores int
	// FreqMHz is the core clock in MHz.
	FreqMHz int
	// CPI holds cycles-per-instruction for each CPUOp class.
	CPI [numCPUOps]float64
}

// Cycles converts a cycle count into virtual time on this CPU.
func (c *CPUModel) Cycles(n float64) time.Duration {
	// n cycles at FreqMHz: n / (FreqMHz*1e6) seconds = n*1000/FreqMHz ns.
	return time.Duration(n * 1e3 / float64(c.FreqMHz))
}

// OpTime returns the time to execute n operations of class op.
func (c *CPUModel) OpTime(op CPUOp, n int64) time.Duration {
	return c.Cycles(c.CPI[op] * float64(n))
}

// Toolchain models compiler code quality: a per-op scale factor applied on
// top of the CPU's cycle table. The paper observes that GCC 4.4.1 generated
// better integer-divide code than Xcode 4.2.1 (Fig. 5, basic ops).
type Toolchain struct {
	// Name identifies the compiler (e.g. "gcc-4.4.1").
	Name string
	// Scale multiplies the CPU cycle count per op class; unset ops use 1.0.
	Scale map[CPUOp]float64
}

// OpScale returns the toolchain's multiplier for op (1.0 if unspecified).
func (t *Toolchain) OpScale(op CPUOp) float64 {
	if t == nil || t.Scale == nil {
		return 1.0
	}
	if s, ok := t.Scale[op]; ok {
		return s
	}
	return 1.0
}

// GCC441 is the Linux/Android toolchain used in the paper.
func GCC441() *Toolchain {
	return &Toolchain{Name: "gcc-4.4.1"}
}

// Xcode421 is the iOS toolchain used in the paper. Its integer-divide code
// is measurably worse than GCC's (visible in Fig. 5 basic ops).
func Xcode421() *Toolchain {
	return &Toolchain{
		Name: "xcode-4.2.1",
		Scale: map[CPUOp]float64{
			OpIntDiv: 1.55,
		},
	}
}

// MemModel describes DRAM characteristics.
type MemModel struct {
	// SizeMB is total RAM.
	SizeMB int
	// KernelReserveMB is RAM the OS itself holds (kernel text, page
	// tables, drivers, firmware carve-outs): it never enters the jetsam
	// budget. Both 2012-class tablets reserve on the order of 1/8 of RAM.
	KernelReserveMB int
	// ReadBWMBs and WriteBWMBs are streaming bandwidths in MB/s.
	ReadBWMBs  float64
	WriteBWMBs float64
	// Latency is the cost of a random access (row miss).
	Latency time.Duration
}

// JetsamBudget returns the bytes available to user tasks before the
// memorystatus degradation ladder engages: total RAM minus the kernel
// reserve. The kernel derives its warn/critical watermarks and per-band
// task limits from this single number, so the whole ladder is a pure
// function of the device profile.
func (m *MemModel) JetsamBudget() uint64 {
	return uint64(m.SizeMB-m.KernelReserveMB) << 20
}

// ReadTime returns the time to stream-read n bytes.
func (m *MemModel) ReadTime(n int64) time.Duration {
	return time.Duration(float64(n) / (m.ReadBWMBs * 1e6) * float64(time.Second))
}

// WriteTime returns the time to stream-write n bytes.
func (m *MemModel) WriteTime(n int64) time.Duration {
	return time.Duration(float64(n) / (m.WriteBWMBs * 1e6) * float64(time.Second))
}

// StorageModel describes the flash storage stack (device + OS driver): the
// paper notes storage results "may reflect differences in both the
// underlying hardware and the OS", so the write path cost is a property of
// the whole device profile.
type StorageModel struct {
	// ReadBWMBs and WriteBWMBs are sequential bandwidths in MB/s.
	ReadBWMBs  float64
	WriteBWMBs float64
	// OpLatency is the fixed per-operation cost (submit + interrupt).
	OpLatency time.Duration
	// CreateLatency and DeleteLatency cover metadata updates.
	CreateLatency time.Duration
	DeleteLatency time.Duration
}

// ReadTime returns the time to read n bytes sequentially.
func (s *StorageModel) ReadTime(n int64) time.Duration {
	return s.OpLatency + time.Duration(float64(n)/(s.ReadBWMBs*1e6)*float64(time.Second))
}

// WriteTime returns the time to write n bytes sequentially.
func (s *StorageModel) WriteTime(n int64) time.Duration {
	return s.OpLatency + time.Duration(float64(n)/(s.WriteBWMBs*1e6)*float64(time.Second))
}

// GPUModel describes the 3D engine. The Nexus 7's Tegra 3 GPU is slower
// than the iPad mini's SGX543MP2, which is why the iPad wins the 3D tests
// in Fig. 6 despite its slower CPU.
type GPUModel struct {
	// Name identifies the part.
	Name string
	// CmdCost is the driver+hardware cost to accept one command-stream
	// command (state change, draw call header).
	CmdCost time.Duration
	// VertexRate is vertex-transform throughput (vertices/second).
	VertexRate float64
	// FillRate is pixel fill throughput (pixels/second).
	FillRate float64
	// FenceLatency is the round-trip cost of a fence/sync object signal.
	FenceLatency time.Duration
	// FrameOverhead is fixed per-frame setup/swap cost.
	FrameOverhead time.Duration
}

// VertexTime returns the time to transform n vertices.
func (g *GPUModel) VertexTime(n int64) time.Duration {
	return time.Duration(float64(n) / g.VertexRate * float64(time.Second))
}

// FillTime returns the time to fill n pixels.
func (g *GPUModel) FillTime(n int64) time.Duration {
	return time.Duration(float64(n) / g.FillRate * float64(time.Second))
}

// DisplayModel describes the panel.
type DisplayModel struct {
	Width, Height int
	// RefreshHz is the panel refresh rate.
	RefreshHz int
}

// Pixels returns the panel pixel count.
func (d *DisplayModel) Pixels() int { return d.Width * d.Height }

// Device bundles the full hardware profile of a tablet.
type Device struct {
	// Name is the product name.
	Name    string
	CPU     *CPUModel
	Mem     *MemModel
	Storage *StorageModel
	GPU     *GPUModel
	Display *DisplayModel
}

// Nexus7 returns the Google Nexus 7 (2012) profile used as the Android
// device in the paper: 1.3 GHz quad-core Tegra 3, 1 GB RAM, 16 GB flash,
// 7" 1280x800 panel.
func Nexus7() *Device {
	return &Device{
		Name: "Nexus 7",
		CPU: &CPUModel{
			Name:    "NVIDIA Tegra 3",
			Cores:   4,
			FreqMHz: 1300,
			CPI: [numCPUOps]float64{
				OpIntAdd:   1.0,
				OpIntMul:   4.0,
				OpIntDiv:   20.0,
				OpFloatAdd: 4.0,
				OpFloatMul: 5.0,
				OpFloatDiv: 28.0,
				OpBranch:   2.0,
				OpLoad:     3.0,
				OpStore:    2.0,
			},
		},
		Mem: &MemModel{
			SizeMB:          1024,
			KernelReserveMB: 128,
			ReadBWMBs:       1400,
			WriteBWMBs:      1100,
			Latency:         110 * time.Nanosecond,
		},
		Storage: &StorageModel{
			ReadBWMBs:     28,
			WriteBWMBs:    9,
			OpLatency:     180 * time.Microsecond,
			CreateLatency: 95 * time.Microsecond,
			DeleteLatency: 80 * time.Microsecond,
		},
		GPU: &GPUModel{
			Name:          "ULP GeForce (Tegra 3)",
			CmdCost:       900 * time.Nanosecond,
			VertexRate:    60e6,
			FillRate:      2000e6,
			FenceLatency:  55 * time.Microsecond,
			FrameOverhead: 650 * time.Microsecond,
		},
		Display: &DisplayModel{Width: 1280, Height: 800, RefreshHz: 60},
	}
}

// IPadMini returns the iPad mini (1st gen) profile used as the iOS device
// in the paper: 1 GHz dual-core A5, 512 MB RAM, 16 GB flash, 7.9" 1024x768
// panel. Its CPU is slower than the Nexus 7's (every basic-op measurement
// in Fig. 5 is worse on the iPad), but its SGX543MP2 GPU is faster.
func IPadMini() *Device {
	return &Device{
		Name: "iPad mini",
		CPU: &CPUModel{
			Name:    "Apple A5",
			Cores:   2,
			FreqMHz: 1000,
			CPI: [numCPUOps]float64{
				OpIntAdd:   1.05,
				OpIntMul:   4.2,
				OpIntDiv:   21.0,
				OpFloatAdd: 4.2,
				OpFloatMul: 5.2,
				OpFloatDiv: 29.0,
				OpBranch:   2.1,
				OpLoad:     3.2,
				OpStore:    2.1,
			},
		},
		Mem: &MemModel{
			SizeMB:          512,
			KernelReserveMB: 64,
			ReadBWMBs:       1050,
			WriteBWMBs:      850,
			Latency:         120 * time.Nanosecond,
		},
		Storage: &StorageModel{
			// The iPad mini's storage write path is much faster than the
			// Nexus 7's (Fig. 6, storage group).
			ReadBWMBs:     30,
			WriteBWMBs:    32,
			OpLatency:     150 * time.Microsecond,
			CreateLatency: 90 * time.Microsecond,
			DeleteLatency: 75 * time.Microsecond,
		},
		GPU: &GPUModel{
			Name:          "PowerVR SGX543MP2",
			CmdCost:       700 * time.Nanosecond,
			VertexRate:    130e6,
			FillRate:      3600e6,
			FenceLatency:  40 * time.Microsecond,
			FrameOverhead: 500 * time.Microsecond,
		},
		Display: &DisplayModel{Width: 1024, Height: 768, RefreshHz: 60},
	}
}
