package lmbench

import "repro/internal/figure"

// claims are the paper's §6.2 claims about Figure 5, each with the
// checks that hold the measured figure to it.
var claims = func() []figure.Claim {
	ciderBoth := []string{figure.ConfigCiderAndroid, figure.ConfigCiderIOS}
	cider, ios, ipad := []string{figure.ConfigCiderAndroid}, []string{figure.ConfigCiderIOS}, []string{figure.ConfigIPad}
	flops := []string{"int mul", "double add", "double mul", "double bogomflops"}
	one := func(s string) []string { return []string{s} }
	return []figure.Claim{
		{ID: "fig5-basic-flat", Section: "6.2", Text: "Basic ops identical across the three Android-device configs, except int div", Paper: "≈1.0x",
			Checks: []figure.Check{{Tests: flops, Configs: ciderBoth, In: figure.Within(0.98, 1.02)}}},
		{ID: "fig5-intdiv", Section: "6.2", Text: "The iOS compiler generates worse integer-divide code (iOS / Linux binary on Cider)", Paper: "int div worse on the iOS binary",
			Checks: []figure.Check{{Tests: one("int div"), Configs: ios, In: figure.AtLeast(1.3)},
				{Tests: one("int div"), Configs: cider, In: figure.Within(0.98, 1.02)}}},
		{ID: "fig5-basic-ipad", Section: "6.2", Text: "Basic ops worse on the iPad (slower CPU)", Paper: ">1x",
			Checks: []figure.Check{{Tests: flops, Configs: ipad, In: figure.Above(1.05)}}},
		{ID: "fig5-null-linux", Section: "6.2", Text: "Null syscall overhead, Linux binary on Cider", Paper: "1.085x (+8.5%)",
			Checks: []figure.Check{{Tests: one("null syscall"), Configs: cider, In: figure.Within(1.06, 1.12)}}},
		{ID: "fig5-null-ios", Section: "6.2", Text: "Null syscall overhead, iOS binary on Cider", Paper: "1.40x (+40%)",
			Checks: []figure.Check{{Tests: one("null syscall"), Configs: ios, In: figure.Within(1.30, 1.52)}}},
		{ID: "fig5-useful-syscalls", Section: "6.2", Text: `Overheads "fall into the noise" for read, write and open/close (iOS binary)`, Paper: "≈1x",
			Checks: []figure.Check{{Tests: []string{"read", "write", "open/close"}, Configs: ios, In: figure.AtMost(1.25)}}},
		{ID: "fig5-signal", Section: "6.2", Text: "Signal handler overhead, Linux / iOS binary on Cider", Paper: "1.03x / 1.25x",
			Checks: []figure.Check{{Tests: one("signal handler"), Configs: cider, In: figure.Within(1.01, 1.08)},
				{Tests: one("signal handler"), Configs: ios, In: figure.Within(1.15, 1.38)}}},
		{ID: "fig5-signal-ipad", Section: "6.2", Text: "Signal handler, iPad over Cider on the same iOS binary", Paper: "2.75x (+175%)",
			Checks: []figure.Check{{Tests: one("signal handler"), Configs: ipad, OverConfig: figure.ConfigCiderIOS, In: figure.Within(2.2, 3.3)}}},
		{ID: "fig5-proc-linux", Section: "6.2", Text: "fork+exit, fork+exec(android) and fork+sh(android) from the Linux binary on Cider", Paper: "negligible (fork+exit ≈245 µs, fork+exec ≈590 µs)",
			Checks: []figure.Check{{Tests: []string{"fork+exit", "fork+exec(android)", "fork+sh(android)"}, Configs: cider, In: figure.AtMost(1.08)}}},
		{ID: "fig5-fork-exit-ios", Section: "6.2", Text: "fork+exit from the iOS binary on Cider: PTE copy of 90 MB / 115 dylibs plus atfork/atexit handlers", Paper: "≈14x (3.75 ms)",
			Checks: []figure.Check{{Tests: one("fork+exit"), Configs: ios, In: figure.Within(11, 17)}}},
		{ID: "fig5-fork-exit-ipad", Section: "6.2", Text: "fork+exit faster on the iPad (shared cache): iPad over Cider, iOS binary", Paper: "significantly faster (<1x)",
			Checks: []figure.Check{{Tests: one("fork+exit"), Configs: ipad, OverConfig: figure.ConfigCiderIOS, In: figure.Below(1)}}},
		{ID: "fig5-fork-exec-ios", Section: "6.2", Text: "fork+exec(android) from the iOS binary on Cider", Paper: "4.8x (3.42 ms)",
			Checks: []figure.Check{{Tests: one("fork+exec(android)"), Configs: ios, In: figure.Within(3.5, 6.5)}}},
		{ID: "fig5-exec-ios", Section: "6.2", Text: "fork+exec(ios) much more expensive: dyld walks 115 dylibs per exec", Paper: "≫ fork+exec(android)",
			Checks: []figure.Check{{Tests: one("fork+exec(ios)"), Configs: ios, In: figure.AtLeast(15)}}},
		{ID: "fig5-exec-ios-ipad", Section: "6.2", Text: "fork+exec(ios) faster on the iPad (shared cache): iPad over Cider", Paper: "faster (<1x)",
			Checks: []figure.Check{{Tests: one("fork+exec(ios)"), Configs: ipad, OverConfig: figure.ConfigCiderIOS, In: figure.Below(1)}}},
		{ID: "fig5-exec-impossible", Section: "6.2", Text: "fork+exec(ios) impossible on vanilla Android, fork+exec(android) on the iPad", Paper: "n/a",
			Checks: []figure.Check{{Tests: one("fork+exec(ios)"), Configs: []string{figure.ConfigAndroid}, NA: true},
				{Tests: one("fork+exec(android)"), Configs: ipad, NA: true}}},
		{ID: "fig5-fork-sh-ios", Section: "6.2", Text: "fork+sh(android) from the iOS binary on Cider", Paper: "2.1x (+110%, 6.8 ms)",
			Checks: []figure.Check{{Tests: one("fork+sh(android)"), Configs: ios, In: figure.Within(1.7, 2.6)}}},
		{ID: "fig5-sh-below-exec", Section: "6.2", Text: "fork+sh(ios)'s relative overhead below fork+exec(ios)'s: their ratio on Cider", Paper: "less (<1x)",
			Checks: []figure.Check{{Tests: one("fork+sh(ios)"), Configs: ios, OverTest: "fork+exec(ios)", In: figure.Below(1)}}},
		{ID: "fig5-comm-flat", Section: "6.2", Text: "pipe, AF_UNIX, select and file ops similar across the Android-device configs", Paper: "≈1x",
			Checks: []figure.Check{{Tests: []string{"pipe", "AF_UNIX", "select 10", "select 100", "0KB create", "10KB delete"}, Configs: ciderBoth, In: figure.Within(0.9, 1.3)}}},
		{ID: "fig5-select-ipad", Section: "6.2", Text: "iPad select degrades linearly with descriptors (100 fds)", Paper: ">10x",
			Checks: []figure.Check{{Tests: one("select 100"), Configs: ipad, In: figure.AtLeast(5)}}},
		{ID: "fig5-select-250", Section: "6.2", Text: "select on 250 descriptors fails on the iPad, runs on Cider", Paper: "fails",
			Checks: []figure.Check{{Tests: one("select 250"), Configs: ipad, NA: true},
				{Tests: one("select 250"), Configs: ios, In: figure.Any}}},
	}
}()
