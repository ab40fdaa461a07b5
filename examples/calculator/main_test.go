package main

// Example runs the program; its output is deterministic in virtual time.
func Example() {
	main()
	// Output:
	// installed /Applications/Calculator.app/Calculator
	//   shortcut: /data/launcher/Calculator.shortcut
	// typed: 12+34=
	// display reads: 46
	// frames composited: 6, diplomatic GL calls: 23
}
