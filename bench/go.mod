module gvmr/bench

go 1.24

require gvmr v0.0.0

replace gvmr => ../
