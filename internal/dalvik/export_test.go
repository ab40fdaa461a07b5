package dalvik

// Differ lets the external tests run the differential oracle on methods
// built outside this package (the PassMark app's dex).
var Differ = differ
