package passmark

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
)

// Workload sizes (kept modest so the whole Fig. 6 battery runs quickly;
// scores are rates, so size only affects measurement noise, which the
// deterministic simulator does not have).
const (
	integerIters   = 30000
	floatingIters  = 20000
	primesN        = 2000
	sortN          = 96
	encryptBytes   = 8192
	compressBytes  = 16384
	memElements    = 32768 // x8 bytes x8 passes = 2 MB streamed
	diskChunk      = 16 << 10
	diskChunks     = 16
	vec2DItems     = 200
	imageItems     = 32
	framesPerScene = 10
)

// cpuTest builds a CPU-group test executing the named dex method on the
// Android build and the native function on the iOS build; the two must
// produce identical checksums (asserted in package tests).
func cpuTest(name, method string, arg int64, native func(*ctx, int64) uint64) Test {
	return Test{
		Name:  name,
		Group: "cpu",
		runAndroid: func(c *ctx) (float64, time.Duration, error) {
			var ret uint64
			elapsed, err := c.timed(func() error {
				var rerr error
				ret, rerr = c.vm.Run(c.t, c.dex, method, uint64(arg))
				return rerr
			})
			_ = ret
			return float64(arg), elapsed, err
		},
		runIOS: func(c *ctx) (float64, time.Duration, error) {
			var ret uint64
			elapsed, err := c.timed(func() error {
				ret = native(c, arg)
				return nil
			})
			_ = ret
			return float64(arg), elapsed, err
		},
	}
}

// checksumPair runs both builds of a CPU test outside the benchmark path
// (used by tests to assert algorithm equivalence).
func checksumPair(c *ctx, method string, arg int64, native func(*ctx, int64) uint64) (uint64, uint64, error) {
	dexRet, err := c.vm.Run(c.t, c.dex, method, uint64(arg))
	if err != nil {
		return 0, 0, err
	}
	return dexRet, native(c, arg), nil
}

// diskTest streams data through the filesystem.
func diskTest(name string, read bool) Test {
	run := func(c *ctx) (float64, time.Duration, error) {
		path := c.tmpPath()
		payload := make([]byte, diskChunk)
		fd, errno := c.lc.Creat(path)
		if errno != kernel.OK {
			return 0, 0, fmt.Errorf("passmark: creat: %v", errno)
		}
		// Write the file (setup for the read test; the measured phase for
		// the write test).
		var elapsed time.Duration
		writeAll := func() error {
			for i := 0; i < diskChunks; i++ {
				if _, errno := c.lc.Write(fd, payload); errno != kernel.OK {
					return fmt.Errorf("passmark: write: %v", errno)
				}
			}
			return nil
		}
		var err error
		if read {
			if err = writeAll(); err != nil {
				return 0, 0, err
			}
			c.lc.Close(fd)
			fd, errno = c.lc.Open(path)
			if errno != kernel.OK {
				return 0, 0, fmt.Errorf("passmark: open: %v", errno)
			}
			buf := make([]byte, diskChunk)
			elapsed, err = c.timed(func() error {
				for i := 0; i < diskChunks; i++ {
					if _, errno := c.lc.Read(fd, buf); errno != kernel.OK {
						return fmt.Errorf("passmark: read: %v", errno)
					}
				}
				return nil
			})
		} else {
			elapsed, err = c.timed(writeAll)
		}
		c.lc.Close(fd)
		c.lc.Unlink(path)
		return float64(diskChunk * diskChunks), elapsed, err
	}
	return Test{Name: name, Group: "storage", runAndroid: run, runIOS: run}
}

// memTest runs the streaming memory workloads.
func memTest(name, method string, native func(*ctx, int64) uint64) Test {
	return Test{
		Name:  name,
		Group: "memory",
		runAndroid: func(c *ctx) (float64, time.Duration, error) {
			elapsed, err := c.timed(func() error {
				_, rerr := c.vm.Run(c.t, c.dex, method, uint64(memElements))
				return rerr
			})
			return float64(memElements * 8 * 8), elapsed, err
		},
		runIOS: func(c *ctx) (float64, time.Duration, error) {
			elapsed, err := c.timed(func() error {
				native(c, memElements)
				return nil
			})
			return float64(memElements * 8 * 8), elapsed, err
		},
	}
}

// vec2DSpec describes one 2D CPU-rasterized workload: per-item pixel and
// ALU work plus the relative efficiency of each platform's 2D library
// ("this is most likely due to more efficient/optimized 2D drawing
// libraries in Android" — except complex vectors, where iOS wins).
type vec2DSpec struct {
	pixels, alu int64
	iosScale    float64
}

var vec2DSpecs = map[string]vec2DSpec{
	"solid vectors":       {pixels: 1200, alu: 260, iosScale: 1.65},
	"transparent vectors": {pixels: 1900, alu: 380, iosScale: 1.55},
	"complex vectors":     {pixels: 2600, alu: 1400, iosScale: 0.72},
	"image filters":       {pixels: 4200, alu: 6200, iosScale: 1.45},
}

func vec2DTest(name string) Test {
	spec := vec2DSpecs[name]
	run := func(c *ctx, scale float64) (float64, time.Duration, error) {
		cpu := c.sys.Kernel.Device().CPU
		elapsed, err := c.timed(func() error {
			for i := 0; i < vec2DItems; i++ {
				// Rasterization: load/blend/store per pixel plus setup ALU.
				d := cpu.OpTime(hw.OpLoad, spec.pixels) +
					cpu.OpTime(hw.OpStore, spec.pixels) +
					cpu.OpTime(hw.OpIntAdd, spec.alu)
				c.t.Charge(time.Duration(float64(d) * scale))
			}
			return nil
		})
		return float64(vec2DItems), elapsed, err
	}
	return Test{
		Name:  name,
		Group: "2d",
		runAndroid: func(c *ctx) (float64, time.Duration, error) {
			// Skia runs native under the Java app (JNI per item).
			c.t.Charge(c.sys.Kernel.Device().CPU.Cycles(260 * vec2DItems))
			return run(c, 1.0)
		},
		runIOS: func(c *ctx) (float64, time.Duration, error) {
			return run(c, spec.iosScale)
		},
	}
}

// imageRenderTest prepares (decode/convert, CPU), uploads and draws
// textures with a fence sync per image — the path the Cider GLES fence bug
// degrades. The iOS image pipeline pays the same 2D-library inefficiency
// as the vector tests.
func imageRenderTest() Test {
	run := func(c *ctx, prepScale float64) (float64, time.Duration, error) {
		cpu := c.sys.Kernel.Device().CPU
		elapsed, err := c.timed(func() error {
			for i := 0; i < imageItems; i++ {
				// Image decode + format conversion on the CPU.
				c.t.Charge(time.Duration(float64(cpu.Cycles(78000)) * prepScale))
				c.glCall("glTexImage2D", 0, 0, 0, 128, 128, 0, 0, 0, 0)
				c.glCall("glDrawArrays", 4, 0, 64)
				c.glCall("glFenceSync", 0, 0)
				c.glCall("glClientWaitSync", 0, 0, 0)
			}
			return nil
		})
		return float64(imageItems), elapsed, err
	}
	return Test{
		Name:       "image rendering",
		Group:      "2d",
		runAndroid: func(c *ctx) (float64, time.Duration, error) { return run(c, 1.0) },
		runIOS:     func(c *ctx) (float64, time.Duration, error) { return run(c, 1.5) },
	}
}

// scene3DTest renders frames of a 3D scene: calls GL per frame (mostly
// state changes, every 8th a draw) and presents. The per-call path is
// where diplomatic overhead accumulates — "as the complexity of a given
// frame increases, the number of OpenGL ES calls increases, which
// correspondingly increases the overhead."
func scene3DTest(name string, calls int, verts int64) Test {
	run := func(c *ctx) (float64, time.Duration, error) {
		draws := int64(calls / 8)
		vertsPerDraw := verts / draws
		elapsed, err := c.timed(func() error {
			for f := 0; f < framesPerScene; f++ {
				for k := 0; k < calls; k++ {
					if k%8 == 7 {
						c.glCall("glDrawArrays", 4, 0, uint64(vertsPerDraw))
					} else {
						c.glCall("glUniformMatrix4fv", uint64(k), 1, 0, 0)
					}
				}
				c.present()
			}
			return nil
		})
		return float64(framesPerScene), elapsed, err
	}
	return Test{Name: name, Group: "3d", runAndroid: run, runIOS: run}
}

// AllTests returns the full Fig. 6 battery in figure order.
func AllTests() []Test {
	return []Test{
		cpuTest("integer math", "integer", integerIters, nativeInteger),
		cpuTest("floating point", "floating", floatingIters, nativeFloating),
		cpuTest("find primes", "primes", primesN, nativePrimes),
		cpuTest("random string sort", "stringsort", sortN, nativeStringSort),
		cpuTest("data encryption", "encrypt", encryptBytes, nativeEncrypt),
		cpuTest("data compression", "compress", compressBytes, nativeCompress),

		diskTest("storage write", false),
		diskTest("storage read", true),

		memTest("memory write", "memwrite", nativeMemWrite),
		memTest("memory read", "memread", nativeMemRead),

		vec2DTest("solid vectors"),
		vec2DTest("transparent vectors"),
		vec2DTest("complex vectors"),
		imageRenderTest(),
		vec2DTest("image filters"),

		scene3DTest("simple 3D", 650, 60000),
		scene3DTest("complex 3D", 3800, 300000),
	}
}
