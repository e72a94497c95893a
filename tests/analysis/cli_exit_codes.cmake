# CI exit-code contract for knctl analyze/lint/recover --inspect:
#   0 = clean (warnings allowed), 1 = findings, 2 = unusable input.
#
# Usage: cmake -DKNCTL=<path> -DSPECS=<dir> -DFIXTURES=<dir> -P cli_exit_codes.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var KNCTL SPECS FIXTURES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

set(scratch ${CMAKE_CURRENT_BINARY_DIR}/knctl_exit_scratch)
file(MAKE_DIRECTORY ${scratch})

function(expect_rc label want)
  execute_process(COMMAND ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "${label}: expected exit ${want}, got ${rc}\n${out}")
  endif()
  message(STATUS "${label}: exit ${rc} as expected")
endfunction()

# --- clean inputs -> 0 -------------------------------------------------------
expect_rc("analyze clean" 0
  ${KNCTL} analyze ${SPECS}/retail_dxg.yaml)
expect_rc("lint clean" 0
  ${KNCTL} lint ${SPECS}/retail_dxg.yaml
          --schema ${SPECS}/checkout_schema.yaml
          --schema ${SPECS}/shipping_schema.yaml
          --schema ${SPECS}/payment_schema.yaml)

# --- findings -> 1 -----------------------------------------------------------
file(WRITE ${scratch}/dangling.yaml
  "Input:\n  C: some/store\nDXG:\n  C:\n    a: Z.b\n")
expect_rc("analyze with issues" 1
  ${KNCTL} analyze ${scratch}/dangling.yaml)
expect_rc("lint with issues" 1
  ${KNCTL} lint ${scratch}/dangling.yaml)

# --- unusable input -> 2 -----------------------------------------------------
file(WRITE ${scratch}/garbage.yaml "- just\n- a\n- sequence\n")
expect_rc("analyze unparsable" 2
  ${KNCTL} analyze ${scratch}/garbage.yaml)
expect_rc("lint unparsable" 2
  ${KNCTL} lint ${scratch}/garbage.yaml)
expect_rc("lint missing file" 2
  ${KNCTL} lint ${scratch}/no_such_file.yaml)
expect_rc("lint bad schema file" 2
  ${KNCTL} lint ${SPECS}/retail_dxg.yaml --schema ${scratch}/garbage.yaml)

# --- json output stays well-formed and drives the same exit codes ------------
execute_process(COMMAND ${KNCTL} analyze ${scratch}/dangling.yaml --format json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT out MATCHES "\"code\": \"KN001\"")
  message(FATAL_ERROR "analyze --format json: rc=${rc} out:\n${out}")
endif()
execute_process(COMMAND ${KNCTL} lint ${scratch}/dangling.yaml --format json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT out MATCHES "\"diagnostics\"")
  message(FATAL_ERROR "lint --format json: rc=${rc} out:\n${out}")
endif()
message(STATUS "json smoke OK")

# --- recover --inspect: 0 healthy, 1 torn artifacts, 2 unusable dir --------
expect_rc("recover missing dir" 2
  ${KNCTL} recover --inspect ${scratch}/no_such_persist_dir)
file(REMOVE_RECURSE ${scratch}/persist_empty ${scratch}/persist_torn)
file(MAKE_DIRECTORY ${scratch}/persist_empty ${scratch}/persist_torn)
expect_rc("recover empty dir" 0
  ${KNCTL} recover --inspect ${scratch}/persist_empty)
execute_process(COMMAND ${KNCTL} recover --inspect ${scratch}/persist_empty
                        --format json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"torn_artifacts\": false")
  message(FATAL_ERROR "recover --inspect --format json: rc=${rc} out:\n${out}")
endif()
file(WRITE ${scratch}/persist_torn/journal-0.kjnl "this is not a journal frame")
expect_rc("recover torn journal" 1
  ${KNCTL} recover --inspect ${scratch}/persist_torn)
message(STATUS "recover --inspect OK")
