# Drives the stisan_cli binary through its full workflow and fails on any
# non-zero exit. Invoked by ctest (see tests/CMakeLists.txt).
file(MAKE_DIRECTORY ${WORKDIR})

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli ${ARGN} failed (${code}):\n${out}\n${err}")
  endif()
endfunction()

run_cli(generate --preset changchun --scale 0.1 --out ${WORKDIR}/city.csv)
run_cli(train --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model.bin
        --epochs 1 --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8)
run_cli(evaluate --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model.bin
        --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8)
run_cli(recommend --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model.bin
        --user 1 --k 5 --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8)

# Mismatched architecture must fail cleanly, naming both configurations.
execute_process(COMMAND ${CLI} evaluate --data ${WORKDIR}/city.csv
                --ckpt ${WORKDIR}/model.bin --min-user 5 --min-poi 2
                --poi-dim 16 --geo-dim 16 RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "evaluate with wrong dims unexpectedly succeeded")
endif()
if(NOT err MATCHES "config mismatch" OR NOT err MATCHES "poi_dim=8"
   OR NOT err MATCHES "poi_dim=16")
  message(FATAL_ERROR "dim mismatch error does not name both configs:\n${err}")
endif()

# seq-len changes no parameter shape; only the checkpoint fingerprint can
# catch evaluating with a different training window length.
execute_process(COMMAND ${CLI} evaluate --data ${WORKDIR}/city.csv
                --ckpt ${WORKDIR}/model.bin --min-user 5 --min-poi 2
                --poi-dim 8 --geo-dim 8 --seq-len 16 RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "evaluate with wrong --seq-len unexpectedly succeeded")
endif()
if(NOT err MATCHES "config mismatch" OR NOT err MATCHES "seq_len=32"
   OR NOT err MATCHES "seq_len=16")
  message(FATAL_ERROR "seq-len mismatch error does not name both configs:\n${err}")
endif()

# Crash-safe checkpointing: interrupt-free ckpt-every run leaves a rotating
# checkpoint directory, and --resume 1 continues from it.
run_cli(train --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model2.bin
        --epochs 2 --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8
        --ckpt-every 1 --keep-ckpts 2)
if(NOT EXISTS ${WORKDIR}/model2.bin.d/ckpt-000002.bin)
  message(FATAL_ERROR "ckpt-every did not write epoch checkpoints")
endif()
run_cli(train --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model2.bin
        --epochs 3 --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8
        --ckpt-every 1 --keep-ckpts 2 --resume 1)
if(NOT EXISTS ${WORKDIR}/model2.bin.d/ckpt-000003.bin)
  message(FATAL_ERROR "resumed run did not extend the checkpoint series")
endif()

# Observability: --metrics-json emits a snapshot with per-phase timings,
# thread-pool task counts and checkpoint I/O stats — and is strictly
# passive: the checkpoint written with metrics enabled is byte-identical to
# the first train run (same data, seed and flags).
run_cli(train --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model_obs.bin
        --epochs 1 --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8
        --metrics-json ${WORKDIR}/train_metrics.json --metrics-every 1)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/model.bin ${WORKDIR}/model_obs.bin
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--metrics-json changed the checkpoint bytes")
endif()
if(NOT EXISTS ${WORKDIR}/train_metrics.json)
  message(FATAL_ERROR "--metrics-json did not write the snapshot file")
endif()
file(READ ${WORKDIR}/train_metrics.json train_metrics)
foreach(key "time/train/epoch" "train/loss" "checkpoint/model_save_bytes"
        "threadpool/tasks_completed")
  if(NOT train_metrics MATCHES "\"${key}\"")
    message(FATAL_ERROR "train metrics snapshot lacks ${key}:\n${train_metrics}")
  endif()
endforeach()

run_cli(evaluate --data ${WORKDIR}/city.csv --ckpt ${WORKDIR}/model_obs.bin
        --min-user 5 --min-poi 2 --poi-dim 8 --geo-dim 8
        --metrics-json ${WORKDIR}/eval_metrics.json)
file(READ ${WORKDIR}/eval_metrics.json eval_metrics)
foreach(key "eval/instances" "time/eval/candidate_gen" "time/eval/score_batch"
        "checkpoint/model_load_bytes")
  if(NOT eval_metrics MATCHES "\"${key}\"")
    message(FATAL_ERROR "eval metrics snapshot lacks ${key}:\n${eval_metrics}")
  endif()
endforeach()
