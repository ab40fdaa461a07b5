GO ?= go

.PHONY: build test vet lint lint-fixtures race bench bench-smoke bench-ratchet bench-golden profile soak soak-smoke soak-smoke-crash soak-smoke-pressure diffcheck diffcheck-smoke replay-smoke explore verify

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

# bench runs the wall-clock harness (full Fig. 5 + Fig. 6 batteries at
# jobs=1 and jobs=GOMAXPROCS, best of 3) and writes BENCH_simwall.json.
# Compare two snapshots with: go run ./cmd/benchdiff OLD.json NEW.json
bench:
	$(GO) run ./cmd/simbench -out BENCH_simwall.json

# bench-smoke is the 1-iteration harness run wired into verify: it proves
# the harness itself still works without the repeated timing passes, and
# -maxswitchallocs 0 asserts the context-switch round still allocates
# nothing (the floor the syscall fast path stands on). The output goes to
# a scratch file (gitignored) so verify never dirties the committed
# BENCH_simwall.json snapshot.
bench-smoke:
	$(GO) run ./cmd/simbench -iterations 1 -maxswitchallocs 0 -out BENCH_simwall.smoke.json

# bench-ratchet re-measures and fails unless ns/sim-syscall strictly
# improved versus the committed snapshot — run this before regenerating
# BENCH_simwall.json in a perf PR so the claimed win is machine-checked.
bench-ratchet:
	$(GO) run ./cmd/simbench -out BENCH_simwall.ratchet.json
	$(GO) run ./cmd/benchdiff -ratchet BENCH_simwall.json BENCH_simwall.ratchet.json

# bench-golden keeps the host-time benchmark (hostbench/, its own module
# importing internal/) building in tier-1: an internal/ API change that
# breaks it fails vet, and a virtual-time change that stales
# hostbench/golden.json fails TestGolden, which checks every cell's
# digest. Timing runs stay with hostbench/run.sh.
bench-golden:
	$(GO) -C hostbench vet . && $(GO) -C hostbench test -count=1 -run '^TestGolden$$' .

# profile writes CPU and allocation profiles of one full harness run for
# the burn-down methodology (go tool pprof -top cpu.pprof, etc.).
profile:
	$(GO) run ./cmd/simbench -iterations 1 -cpuprofile cpu.pprof -memprofile mem.pprof -out BENCH_simwall.smoke.json
	@echo "profile: wrote cpu.pprof mem.pprof (inspect with: go tool pprof -top cpu.pprof)"

# soak runs the full fault-schedule matrix over the complete Fig. 5 + 6
# batteries with cross-jobs determinism verification — the long-form
# error-path burn-down (see DESIGN.md "Fault model and error-path
# invariants").
soak:
	$(GO) run ./cmd/cider soak -full -verify

# soak-smoke is the 1-schedule version wired into verify: the eintr-storm
# schedule over the reduced battery, with the jobs=1 vs jobs=N digest
# comparison, proves injection, leak checking and determinism end to end
# in a few seconds.
soak-smoke:
	$(GO) run ./cmd/cider soak -quick -verify -schedule eintr-storm

# soak-smoke-crash is the crash-containment smoke: the daemon-crash
# schedule kills service daemons mid-battery; launchd must respawn them,
# crash reports must land, and the digest must stay jobs-invariant.
soak-smoke-crash:
	$(GO) run ./cmd/cider soak -quick -verify -schedule daemon-crash

# soak-smoke-pressure is the resource-governance smoke: the
# mem-pressure-storm schedule drives the memorystatus ladder (notify,
# shed, jetsam in band order) while the benchmark runs foreground;
# the digest must stay jobs-invariant, the foreground must survive,
# kills must actually fire, and launchd must respawn reaped daemons
# without charging its crash-loop budget.
soak-smoke-pressure:
	$(GO) run ./cmd/cider soak -quick -verify -schedule mem-pressure-storm

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
# ciderlint, pass the full test suite under the race detector, run the
# bench, soak, and diffcheck harnesses once end to end, check the
# host-time benchmark against its golden digests, and prove the
# record/replay round trip is bit-identical.
verify: build vet lint lint-fixtures race bench-smoke bench-golden soak-smoke soak-smoke-crash soak-smoke-pressure diffcheck-smoke replay-smoke
