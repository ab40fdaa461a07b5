package main

// Example runs the program; its output is deterministic in virtual time.
func Example() {
	main()
	// Output:
	// [Android] hello from an ELF binary! persona=android
	// [iOS]     hello from a Mach-O binary!
	// [iOS]     persona=ios, dyld loaded 115 dylibs, 90 MB mapped
	// both ecosystems ran on one kernel — no VM, no second OS instance
}
