package interp

// Unfuse makes vm run every function of its program from fn.Code as
// compiled, with no superinstruction: the stream the fused one is held to.
// Call it before the first activation.
func Unfuse(vm *VM) {
	for _, fn := range vm.Prog.Funcs {
		vm.setCode(fn, fn.Code)
	}
}
