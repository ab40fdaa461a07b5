package soak

import (
	"time"

	"repro/internal/abi"
	"repro/internal/bionic"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/mem"
	"repro/internal/prog"
)

// In-cell resource-governance workloads: the balloons the pressure
// schedules storm and the descriptor hogs the fd-exhaustion schedule
// runs. All of them are deterministic band-assigned processes whose only
// job is to push the kernel's governance machinery — footprint
// accounting, the memorystatus ladder, RLIMIT_NOFILE — through its
// degradation paths while the benchmark keeps running in the foreground.
const (
	// balloonIdlePath is the idle-band balloon: biggest footprint, first
	// to die when a critical episode fires.
	balloonIdlePath = "/bin/balloon-idle"
	// balloonBGPath is the background-band balloon: survives the storm
	// (daemons sit above background in the kill order).
	balloonBGPath = "/bin/balloon-bg"
	// balloonDroidPath is the Android-persona trim listener: small
	// ballast, sheds it on the first onTrimMemory delivery.
	balloonDroidPath = "/bin/balloon-droid"
	// fdHogIOSPath / fdHogDroidPath are the per-persona descriptor hogs.
	fdHogIOSPath   = "/bin/fd-hog-ios"
	fdHogDroidPath = "/bin/fd-hog-droid"
)

const (
	// balloonStart is when ballooning begins: after the band assignments
	// and pressure-listener registrations, which is what lets the
	// schedule's After gates skip exec-time materializations.
	balloonStart = 2 * time.Millisecond
	// balloonStagger separates the two iOS balloons' rounds in virtual
	// time so no two inflations ever tie on the clock.
	balloonStagger = 400 * time.Microsecond
	// balloonRounds is how many chunks each balloon inflates.
	balloonRounds = 8
)

// bootCellPressure starts the balloon workloads next to the benchmark.
// Like bootCellServices, failures are tolerated: a configuration without
// the needed layer simply runs fewer balloons, and the difference lands
// in the digest rather than as a host error.
func bootCellPressure(sys *core.System) {
	if sys.IOSFS != nil {
		balloons := []struct {
			path  string
			band  kernel.Band
			chunk uint64
			delay time.Duration
		}{
			{balloonIdlePath, kernel.BandIdle, 64 << 10, 0},
			{balloonBGPath, kernel.BandBackground, 32 << 10, balloonStagger},
		}
		for _, b := range balloons {
			b := b
			if err := sys.InstallIOSBinary(b.path, "soak"+b.path, nil, func(c *prog.Call) uint64 {
				runBalloon(c.Ctx.(*kernel.Thread), b.band, b.chunk, b.delay)
				return 0
			}); err != nil {
				continue
			}
			if _, err := sys.Start(b.path, nil); err != nil {
				continue
			}
		}
	}
	if sys.AndroidFS != nil {
		if err := sys.InstallStaticAndroidBinary(balloonDroidPath, "soak-balloon-droid", func(c *prog.Call) uint64 {
			runDroidListener(c.Ctx.(*kernel.Thread))
			return 0
		}); err == nil {
			sys.Start(balloonDroidPath, nil)
		}
	}
}

// runBalloon is the iOS balloon body: assign the jetsam band, register a
// dispatch-source pressure handler that sheds the oldest chunk, then
// inflate one chunk per round. Every round ends in a syscall — that is
// where a jetsam SIGKILL lands, so a reaped balloon dies at a
// deterministic point in its own loop.
func runBalloon(th *kernel.Thread, band kernel.Band, chunk uint64, delay time.Duration) {
	th.Kernel().Memorystatus().SetBand(th.Task(), band)
	lc := libsystem.Sys(th)
	as := th.Task().Mem()
	var mapped []uint64
	lc.DispatchSourceMemoryPressure(func(flags int) {
		// Cooperative cache shedding: drop the oldest chunk. The handler
		// runs on whichever thread crossed the watermark; unmapping only
		// touches this task's address-space structures, which tolerate
		// foreign-thread execution.
		if len(mapped) > 0 {
			as.Unmap(mapped[0])
			mapped = mapped[1:]
		}
	})
	sleepTick(th, balloonStart-th.Now()+delay)
	for i := 0; i < balloonRounds; i++ {
		if r, err := as.Map(0, chunk, mem.ProtRead|mem.ProtWrite, "[balloon]", false); err == nil {
			// Touch the mapping: the zero-fill commit is the
			// footprint-charge point the schedule's rules key on.
			r.Backing().Commit()
			mapped = append(mapped, r.Base)
		}
		lc.GetPID()
		sleepTick(th, time.Millisecond)
	}
	// Wind-down heartbeat: stay alive (and killable) through the tail of
	// the storm, then deflate and exit clean.
	for i := 0; i < 16; i++ {
		lc.GetPID()
		sleepTick(th, time.Millisecond)
	}
	for _, base := range mapped {
		as.Unmap(base)
	}
}

// runDroidListener is the Android-persona pressure consumer: a background
// process holding one cache ballast it frees on the first trim callback —
// the bionic analogue of the iOS balloons' dispatch-source shedding.
func runDroidListener(th *kernel.Thread) {
	th.Kernel().Memorystatus().SetBand(th.Task(), kernel.BandBackground)
	bc := bionic.Sys(th)
	as := th.Task().Mem()
	var ballast uint64
	if r, err := as.Map(0, 32<<10, mem.ProtRead|mem.ProtWrite, "[droid-cache]", false); err == nil {
		r.Backing().Commit()
		ballast = r.Base
	}
	shed := false
	bc.OnTrimMemory(func(level int) {
		if !shed && ballast != 0 {
			as.Unmap(ballast)
			shed = true
		}
	})
	for i := 0; i < 24; i++ {
		bc.GetPID()
		sleepTick(th, time.Millisecond)
	}
	if !shed && ballast != 0 {
		as.Unmap(ballast)
	}
}

// hogLimit is the RLIMIT_NOFILE soft value the fd hogs lower themselves
// to before exhausting the table.
const hogLimit = 16

// bootCellFDHog starts one descriptor hog per available persona layer.
func bootCellFDHog(sys *core.System) {
	if sys.IOSFS != nil {
		if err := sys.InstallIOSBinary(fdHogIOSPath, "soak-fd-hog-ios", nil, func(c *prog.Call) uint64 {
			runFDHogIOS(c.Ctx.(*kernel.Thread))
			return 0
		}); err == nil {
			sys.Start(fdHogIOSPath, nil)
		}
	}
	if sys.AndroidFS != nil {
		if err := sys.InstallStaticAndroidBinary(fdHogDroidPath, "soak-fd-hog-droid", func(c *prog.Call) uint64 {
			runFDHogDroid(c.Ctx.(*kernel.Thread))
			return 0
		}); err == nil {
			sys.Start(fdHogDroidPath, nil)
		}
	}
}

// runFDHogIOS lowers RLIMIT_NOFILE through the XNU-numbered surface
// (resource 8, translated at the ABI boundary), dups into the wall, and
// releases everything — exercising translation, enforcement, accounting
// and recovery in one deterministic pass.
func runFDHogIOS(th *kernel.Thread) {
	lc := libsystem.Sys(th)
	if _, max, errno := lc.Getrlimit(abi.XNURLimitNoFile); errno == kernel.OK {
		lc.Setrlimit(abi.XNURLimitNoFile, hogLimit, max)
	}
	// cur > max must be rejected in the persona's own numbering.
	lc.Setrlimit(abi.XNURLimitNoFile, 64, 32)
	fd, errno := lc.Creat("/tmp/fd-hog-ios")
	if errno != kernel.OK {
		return
	}
	fds := []int{fd}
	for i := 0; i < hogLimit*2; i++ {
		nfd, derr := lc.Dup(fd)
		if derr != kernel.OK {
			break // EMFILE: the wall, counted as rlimit.hits
		}
		fds = append(fds, nfd)
	}
	for _, f := range fds {
		lc.Close(f)
	}
}

// runFDHogDroid is the Linux-numbered twin (resource 7, no translation).
func runFDHogDroid(th *kernel.Thread) {
	bc := bionic.Sys(th)
	if _, max, errno := bc.Getrlimit(kernel.RLimitNoFile); errno == kernel.OK {
		bc.Setrlimit(kernel.RLimitNoFile, hogLimit, max)
	}
	fd, errno := bc.Creat("/tmp/fd-hog-droid")
	if errno != kernel.OK {
		return
	}
	fds := []int{fd}
	for i := 0; i < hogLimit*2; i++ {
		nfd, derr := bc.Dup(fd)
		if derr != kernel.OK {
			break
		}
		fds = append(fds, nfd)
	}
	for _, f := range fds {
		bc.Close(f)
	}
}
