# Injected into the root project with -DCMAKE_PROJECT_INCLUDE, so the
# benchmark builds against the repository's own targets without the root
# CMakeLists.txt knowing about it (see benchmark/run.sh).
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/benchmark)
