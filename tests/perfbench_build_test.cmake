# Configures perfbench/ as its own CMake project and builds
# perfbench_worker, the way perfbench/run.py does before every benchmark
# run. The worker calls the serving and layer APIs of src/ directly, so an
# API edit that breaks it fails here instead of only when the benchmark
# runs. Invoked by ctest (see tests/CMakeLists.txt) with -DSOURCE=<perfbench
# directory>, -DBINARY=<build directory> and -DCXX=<C++ compiler>.

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE} -B ${BINARY}
          -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_COMPILER=${CXX}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "configuring perfbench failed (${code}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY} --target perfbench_worker
          --parallel 4
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "building perfbench_worker failed (${code}):\n${out}\n${err}")
endif()
