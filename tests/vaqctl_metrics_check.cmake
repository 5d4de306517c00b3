# Tier-1 check for `vaqctl metrics`: the seeded demo run must succeed
# (its built-in JSON selfcheck passes), emit the key metric families, and
# be byte-identical across two runs with the same seed. The registry holds
# logical quantities only, so no wall-time family may appear in it.
#
# Invoked as:
#   cmake -DVAQCTL=<path-to-vaqctl> -P vaqctl_metrics_check.cmake

if(NOT DEFINED VAQCTL)
  message(FATAL_ERROR "pass -DVAQCTL=<path to vaqctl>")
endif()

execute_process(
  COMMAND ${VAQCTL} metrics --seed 7
  OUTPUT_VARIABLE run1
  ERROR_VARIABLE err1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "vaqctl metrics failed (rc=${rc1}): ${err1}")
endif()

execute_process(
  COMMAND ${VAQCTL} metrics --seed 7
  OUTPUT_VARIABLE run2
  ERROR_VARIABLE err2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "vaqctl metrics rerun failed (rc=${rc2}): ${err2}")
endif()

if(NOT run1 STREQUAL run2)
  message(FATAL_ERROR
    "vaqctl metrics is not deterministic: two --seed 7 runs differ")
endif()

foreach(family
    vaq_detector_inferences_total
    vaq_recognizer_inferences_total
    vaq_model_calls_total
    vaq_model_retries_total
    vaq_breaker_transitions_total
    vaq_clip_eval_simulated_ms
    vaq_gap_policy_activations_total
    vaq_storage_accesses_total
    vaq_span_total)
  string(FIND "${run1}" "${family}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "vaqctl metrics output is missing family '${family}'")
  endif()
endforeach()

# Wall time stays out of the registry: spans are counted, never timed.
foreach(family
    vaq_span_ms)
  string(FIND "${run1}" "${family}" found)
  if(NOT found EQUAL -1)
    message(FATAL_ERROR
      "vaqctl metrics output has wall-time family '${family}'")
  endif()
endforeach()

message(STATUS "vaqctl metrics: deterministic, selfchecked, all families present, no wall-time family")
