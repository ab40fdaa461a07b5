// Quickstart: boot a Cider device and run an unmodified iOS binary and an
// Android binary side by side — the paper's core claim, in ~60 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dyld"
	"repro/internal/kernel"
	"repro/internal/prog"
)

func main() {
	// A Cider system is a Nexus 7 whose Linux kernel has been given a
	// Mach-O loader, per-thread personas, the XNU syscall/signal ABI, and
	// duct-taped Mach IPC / pthread / I/O Kit subsystems.
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		log.Fatal(err)
	}

	// Install an iOS app: a real Mach-O executable (parseable with
	// `cider macho`) linking libSystem, which transitively drags in the
	// full ~115-dylib base image, loaded by dyld at exec.
	err = sys.InstallIOSBinary("/Applications/Hello.app/Hello", "hello-ios", nil,
		func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			images, _ := dyld.ImagesFor(th.Task())
			fmt.Printf("[iOS]     hello from a Mach-O binary!\n")
			fmt.Printf("[iOS]     persona=%v, dyld loaded %d dylibs, %d MB mapped\n",
				th.Persona.Current(), images.Count(),
				th.Task().Mem().MappedBytes()>>20)
			return 0
		})
	if err != nil {
		log.Fatal(err)
	}

	// And an ordinary Android binary.
	err = sys.InstallStaticAndroidBinary("/system/bin/hello", "hello-android",
		func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			fmt.Printf("[Android] hello from an ELF binary! persona=%v\n",
				th.Persona.Current())
			return 0
		})
	if err != nil {
		log.Fatal(err)
	}

	// Start both; the simulation runs them to completion.
	if _, err := sys.Start("/Applications/Hello.app/Hello", nil); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Start("/system/bin/hello", nil); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("both ecosystems ran on one kernel — no VM, no second OS instance")
}
