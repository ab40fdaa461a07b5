GO ?= go

.PHONY: build test vet lint lint-fixtures race switch-allocs bench bench-golden profile soak soak-smoke diffcheck diffcheck-smoke replay-smoke explore verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs ciderlint, the full static suite: the v1 simulation
# invariants (wallclock, chargecheck, waketag, tracepure) and the v2
# ABI-fidelity/concurrency/hot-path passes (tablecomplete, xlatecheck,
# lockorder, hotalloc) — see DESIGN.md "Simulation invariants" and
# "Static analysis v2". -timing prints per-analyzer wall-clock totals and
# the trailing findings/allowed/analyzers summary line.
lint:
	$(GO) run ./cmd/ciderlint -timing ./...

# lint-fixtures is the bounded analyzer smoke wired into verify: the
# want-annotated fixture suites prove each analyzer still fires on its
# known-bad shapes (a regression here means the tree gate is toothless).
lint-fixtures:
	$(GO) test -count=1 -run 'TestWallclock|TestChargeCheck|TestWakeTag|TestTracePure|TestTableComplete|TestXlateCheck|TestLockOrder|TestHotAlloc|TestDirectives' ./internal/analysis

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# switch-allocs pins the context-switch round (the park/wake handoff
# the syscall fast path stands on) at zero allocations. The test file is
# left out of -race builds, whose runtime allocates on its own account,
# so verify runs it here, without the race detector.
switch-allocs:
	$(GO) test -count=1 -run '^TestSwitchRoundAllocs$$' ./internal/sim

# bench runs the host-time benchmark (hostbench/, declared in
# BENCHMARK.json) on every workload and prints each run's end-to-end
# metrics. To compare two checkouts, run each with --out FILE.json and
#   bash hostbench/run.sh diff -old 'a/*.json' -new 'b/*.json'
bench:
	for w in fig5 fig6 soak-crash diffcheck; do bash hostbench/run.sh --workload $$w --seconds 30 --trace 0 || exit 1; done

# bench-golden keeps the host-time benchmark (hostbench/, its own module
# importing internal/) building in tier-1: an internal/ API change that
# breaks it fails vet, and a virtual-time change that stales
# hostbench/golden.json fails TestGolden, which checks every cell's
# digest. Timing runs stay with hostbench/run.sh.
bench-golden:
	$(GO) -C hostbench vet . && $(GO) -C hostbench test -count=1 -run '^TestGolden$$' .

# profile writes CPU and allocation profiles of one pass over the Fig. 5
# benchmarks for the burn-down methodology (go tool pprof -top cpu.pprof).
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkFig5' -benchtime 1x -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profile: wrote cpu.pprof mem.pprof (inspect with: go tool pprof -top cpu.pprof)"

# soak runs the full fault-schedule matrix over the complete Fig. 5 + 6
# batteries with cross-jobs determinism verification — the long-form
# error-path burn-down (see DESIGN.md "Fault model and error-path
# invariants").
soak:
	$(GO) run ./cmd/cider soak -full -verify

# soak-smoke is the version wired into verify: three schedules over the
# reduced battery, each with the jobs=1 vs jobs=N digest comparison.
# eintr-storm proves injection, leak checking and determinism end to
# end; daemon-crash kills service daemons mid-battery, so launchd must
# respawn them and crash reports must land; mem-pressure-storm drives
# the memorystatus ladder (notify, shed, jetsam in band order) while the
# benchmark runs foreground, so the foreground must survive, kills must
# actually fire, and launchd must respawn reaped daemons without
# charging its crash-loop budget.
soak-smoke:
	$(GO) run ./cmd/cider soak -quick -verify -schedule eintr-storm,daemon-crash,mem-pressure-storm

# diffcheck runs the differential persona oracle at full depth: 200
# seeded programs, each executed under both personas and diffed after
# normalization; any unallowlisted divergence is minimized, reported,
# and fails the target (see DESIGN.md "Differential persona testing").
diffcheck:
	$(GO) run ./cmd/cider diffcheck --seeds 200

# diffcheck-smoke is the bounded version wired into verify: enough seeds
# to cross every op kind and fault-schedule shape, small enough to stay
# in tier-1 time. The always-on test-suite gate is
# internal/diffcheck.TestTreeHasNoDivergences.
diffcheck-smoke:
	$(GO) run ./cmd/cider diffcheck --seeds 60

# replay-smoke is the record/replay round trip wired into verify: record
# two soak cells (the decision-heavy mach cell and one lmbench cell),
# write each artifact through the canonical encoder, reload, re-execute
# in isolation, and assert the replayed digest is bit-identical to the
# recorded one (see DESIGN.md "Record/replay and schedule exploration").
replay-smoke:
	$(GO) run ./cmd/cider replay -smoke

# explore is the bounded DPOR-lite run: every soak schedule's cells and
# every diffcheck persona pair re-execute under seeded perturbations of
# each ambiguous scheduler decision (equal-time next-pick, wake order,
# preemption ties); any invariant violation or persona divergence is
# delta-debug minimized and written out as a one-command replay
# artifact. Deterministic for fixed rounds — rerunning reproduces the
# same schedules, findings and digests.
explore:
	$(GO) run ./cmd/cider soak --explore 5
	$(GO) run ./cmd/cider diffcheck --explore 3 --seeds 60

# verify is the tier-1 gate: everything must build, vet clean, pass
# ciderlint, pass the full test suite under the race detector, keep the
# context-switch round allocation-free, check the host-time benchmark
# against its golden digests, run the soak and diffcheck harnesses once
# end to end, and prove the record/replay round trip is bit-identical.
verify: build vet lint lint-fixtures race switch-allocs bench-golden soak-smoke diffcheck-smoke replay-smoke
