package main

// Example runs the program; its output is deterministic in virtual time.
func Example() {
	main()
	// Output:
	// iOS game binary, same scenes, two devices (ms/frame; lower is better)
	// scene                    cider/Nexus7    iPad mini cider/iPad
	// menu (sparse)                  2.04ms       1.15ms      1.78x
	// gameplay (simple)              3.79ms       1.96ms      1.94x
	// boss fight (complex)          16.67ms       7.63ms      2.19x
	//
	// diplomatic GL calls on Cider: 46533
	// (the iPad's faster GPU wins 3D, as in Fig. 6; the gap widens with
	//  scene complexity because every GL call pays the diplomat round trip)
}
