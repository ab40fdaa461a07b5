GO ?= go

.PHONY: build test vet lint race switch-allocs bench bench-golden profile cover soak soak-smoke diffcheck diffcheck-smoke explore verify

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

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# switch-allocs pins the context-switch round (the park/wake handoff
# the syscall fast path stands on) at zero allocations and the cost of
# one Proc (its coroutine) under a bound, a trap with arguments through each
# persona's libc (per-thread argument slots) and a diplomatic GL call
# (per-thread call frames) at zero allocations, a libSystem Mach self
# round trip (its message buffers ride the argument slot) at two, and a
# replayed iOS exec (dyld's link plan, one region slab, no store for an
# untouched segment), an iOS fork+exit+wait over the 115-dylib image set
# (one region slab, fewer allocations than regions) and a boot of each
# configuration (one-slab filesystem clone, views of the process's shared
# syscall tables, export keys built once) under fixed bounds, a select
# over N ready descriptors at a count independent of N, and a
# creat-truncate-write of an unpinned 10 KB file with no new store, and a
# second Dalvik Run of each PassMark method at zero allocations (reused
# frames and array backings, decoded form built once). The test files are
# left out of -race builds, whose runtime allocates on its own account, so
# verify runs them here, without the race detector.
switch-allocs:
	$(GO) test -count=1 -run '^(TestSwitchRoundAllocs|TestSpawnAllocs)$$' -v ./internal/sim
	$(GO) test -count=1 -run '^(TestExecIOSAllocs|TestForkIOSAllocs|TestBootAllocs|TestSyscallArgsAllocs|TestDiplomatHopAllocs|TestMachRoundTripAllocs|TestSelectReadyAllocs|TestCreatTruncateWriteAllocs)$$' -v ./internal/core
	$(GO) test -count=1 -run '^TestVMRunAllocs$$' -v ./internal/passmark

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

# cover runs every test once with coverage of the whole module (not
# part of verify; about 40 s on two cores), then prints statement
# coverage per package and every function no test reaches. Coverage is
# evidence for the deletion and test budget, not a gate.
cover:
	$(GO) test -count=1 -coverpkg=repro/... -coverprofile=cover.out ./...
	@echo "== statement coverage per package =="
	@awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (b in n) { p = b; sub(/\/[^\/]*$$/, "", p); all[p] += n[b]; if (hit[b]) got[p] += n[b] } \
		for (p in all) printf "%-40s %5.1f%%\n", p, 100 * got[p] / all[p] }' cover.out | sort
	@echo "== functions at 0% =="
	@$(GO) tool cover -func=cover.out | awk '$$NF == "0.0%"'

# soak runs the full fault-schedule matrix over the complete Fig. 5 + 6
# batteries with cross-jobs determinism verification — the long-form
# error-path burn-down (see DESIGN.md "Fault model and error-path
# invariants").
soak:
	$(GO) run ./cmd/cider soak -full -verify

# soak-smoke is the version wired into verify: three schedules over the
# reduced battery, each run once at jobs=1 (the reported row) and once
# at jobs=N, with the two digests compared.
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
# ciderlint, pass the full test suite under the race detector (which
# includes the analyzers' fixture suites and cmd/cider's replay of the
# checked-in artifact, TestReplayFixture), keep the context-switch round
# allocation-free, check the host-time benchmark against its golden
# digests, and run the soak and diffcheck harnesses once end to end.
verify: build vet lint race switch-allocs bench-golden soak-smoke diffcheck-smoke
