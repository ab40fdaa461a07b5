package main

// Example runs the program; its output is deterministic in virtual time.
func Example() {
	main()
	// Output:
	// one iOS process, three threads, two personas:
	//   frames rendered (render thread, domestic persona in GL): 30
	//   touch events handled (input thread, foreign persona):    20
	//   persona switches by the render thread:                   186
	//   total diplomatic calls:                                  93
}
