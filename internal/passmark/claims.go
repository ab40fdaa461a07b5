package passmark

import "repro/internal/figure"

// claims are the paper's §6.3 claims about Figure 6, each with the
// checks that hold the measured figure to it.
var claims = func() []figure.Claim {
	var all []string
	for _, t := range AllTests() {
		all = append(all, t.Name)
	}
	cpu := []string{"integer math", "floating point", "find primes", "random string sort", "data encryption", "data compression"}
	memory := []string{"memory write", "memory read"}
	cider, ios, ipad := []string{figure.ConfigCiderAndroid}, []string{figure.ConfigCiderIOS}, []string{figure.ConfigIPad}
	one := func(s string) []string { return []string{s} }
	return []figure.Claim{
		{ID: "fig6-android-app", Section: "6.3", Text: "Cider adds negligible overhead to the Android app in all tests", Paper: "negligible",
			Checks: []figure.Check{{Tests: all, Configs: cider, In: figure.Within(0.97, 1.03)}}},
		{ID: "fig6-cpu-native", Section: "6.3", Text: "CPU tests: the iOS app on Cider ≫ the Android app (native vs Dalvik-interpreted)", Paper: "≫1x",
			Checks: []figure.Check{{Tests: cpu, Configs: ios, In: figure.AtLeast(2)}}},
		{ID: "fig6-cpu-ipad", Section: "6.3", Text: "CPU tests: the native iOS app on the iPad beats the interpreted Android app", Paper: ">1x",
			Checks: []figure.Check{{Tests: cpu, Configs: ipad, In: figure.Above(1)}}},
		{ID: "fig6-cpu-cider-beats-ipad", Section: "6.3", Text: "CPU tests: Cider beats the iPad on the same iOS binary (faster Nexus 7 CPU): Cider over iPad", Paper: ">1x",
			Checks: []figure.Check{{Tests: cpu, Configs: ios, OverConfig: figure.ConfigIPad, In: figure.Above(1)}}},
		{ID: "fig6-storage-write", Section: "6.3", Text: "Storage write: the iPad much better than anything on Cider", Paper: "much better",
			Checks: []figure.Check{{Tests: one("storage write"), Configs: ipad, In: figure.AtLeast(2)}}},
		{ID: "fig6-storage-read", Section: "6.3", Text: "Storage read: Cider ≈ the iPad (iPad over Cider / Cider over iPad)", Paper: "similar",
			Checks: []figure.Check{{Tests: one("storage read"), Configs: ipad, OverConfig: figure.ConfigCiderIOS, In: figure.AtMost(1.3)},
				{Tests: one("storage read"), Configs: ios, OverConfig: figure.ConfigIPad, In: figure.AtMost(1.3)}}},
		{ID: "fig6-memory-native", Section: "6.3", Text: "Memory tests: the iOS app on Cider ≫ the Android app (native vs Dalvik)", Paper: "≫1x",
			Checks: []figure.Check{{Tests: memory, Configs: ios, In: figure.AtLeast(2)}}},
		{ID: "fig6-memory-cider-beats-ipad", Section: "6.3", Text: "Memory tests: Cider beats the iPad on the same iOS binary: Cider over iPad", Paper: ">1x",
			Checks: []figure.Check{{Tests: memory, Configs: ios, OverConfig: figure.ConfigIPad, In: figure.Above(1)}}},
		{ID: "fig6-2d-android-wins", Section: "6.3", Text: "2D: the Android app beats the iOS binary on Cider and the iPad, except complex vectors", Paper: "<1x",
			Checks: []figure.Check{{Tests: []string{"solid vectors", "transparent vectors", "image rendering", "image filters"}, Configs: []string{figure.ConfigCiderIOS, figure.ConfigIPad}, In: figure.Below(1)}}},
		{ID: "fig6-2d-complex-vectors", Section: "6.3", Text: "2D complex vectors: the iOS library wins on Cider", Paper: ">1x",
			Checks: []figure.Check{{Tests: one("complex vectors"), Configs: ios, In: figure.Above(1)}}},
		{ID: "fig6-2d-cpu-bound", Section: "6.3", Text: "2D tests are CPU bound: Cider beats the iPad on the same binary: Cider over iPad", Paper: ">1x",
			Checks: []figure.Check{{Tests: []string{"solid vectors", "transparent vectors", "complex vectors", "image filters"}, Configs: ios, OverConfig: figure.ConfigIPad, In: figure.Above(1)}}},
		{ID: "fig6-fence-bug", Section: "6.3", Text: "Image rendering hurt by Cider's GLES fence bug: Cider trails the iPad, Cider over iPad", Paper: "under-performs (<1x)",
			Checks: []figure.Check{{Tests: one("image rendering"), Configs: ios, OverConfig: figure.ConfigIPad, In: figure.Below(1)}}},
		{ID: "fig6-3d-ipad", Section: "6.3", Text: "3D: the iPad wins (faster GPU)", Paper: ">1x",
			Checks: []figure.Check{{Tests: []string{"simple 3D", "complex 3D"}, Configs: ipad, In: figure.Above(1)}}},
		{ID: "fig6-3d-diplomat", Section: "6.3", Text: "3D: the iOS binary on Cider below the Android app by the diplomat cost (simple / complex)", Paper: "20–37% worse",
			Checks: []figure.Check{{Tests: one("simple 3D"), Configs: ios, In: figure.Within(0.63, 0.83)},
				{Tests: one("complex 3D"), Configs: ios, In: figure.Within(0.60, 0.80)}}},
		{ID: "fig6-3d-complexity", Section: "6.3", Text: "3D: the overhead grows with frame complexity: complex over simple 3D on Cider", Paper: "grows with complexity (<1x)",
			Checks: []figure.Check{{Tests: one("complex 3D"), Configs: ios, OverTest: "simple 3D", In: figure.Below(1)}}},
	}
}()
