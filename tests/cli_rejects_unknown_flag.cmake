# A flag the command does not read, or a value that does not parse as the
# number its flag takes, must stop stisan_cli with exit 2 and a message on
# stderr before the command does any work. Invoked by ctest (see
# tests/CMakeLists.txt).
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(expect_rejected message)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT err MATCHES "${message}")
    message(FATAL_ERROR "cli ${ARGN}: expected exit 2 and '${message}' on "
                        "stderr, got exit ${code}:\n${out}\n${err}")
  endif()
endfunction()

expect_rejected("unknown flag --no-such-flag"
  generate --preset changchun --scale 0.05 --out ${WORKDIR}/x.csv
  --no-such-flag 1)
expect_rejected("bad value for --scale"
  generate --preset changchun --scale abc --out ${WORKDIR}/x.csv)
if(EXISTS ${WORKDIR}/x.csv)
  message(FATAL_ERROR "a rejected generate still wrote its output")
endif()
# A typo of --epochs must not train the default number of epochs.
expect_rejected("unknown flag --epoch"
  train --data ${WORKDIR}/x.csv --ckpt ${WORKDIR}/m.bin --epoch 2)
expect_rejected("bad value for --epochs"
  train --data ${WORKDIR}/x.csv --ckpt ${WORKDIR}/m.bin --epochs 2x)
# A flag of another command is unknown here.
expect_rejected("unknown flag --eval-batch"
  recommend --data ${WORKDIR}/x.csv --ckpt ${WORKDIR}/m.bin --user 1
  --eval-batch 8)
